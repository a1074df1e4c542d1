// Command candump decodes a raw bit trace (as written by michican-sim
// -trace, or any '0'/'1' text where 0 is dominant) into frames and error
// episodes — the logic-analyzer view of Sec. V-A. With -events it replays the
// matching telemetry stream (michican-sim -events) through the forensics
// engine and annotates each destroyed attempt with its incident markers: the
// detection bit, the counterattack span, and bus-off — so spoof fights are
// visible inline in the dump.
//
// With -from-store it skips the bit trace entirely and reconstructs a
// historical window straight out of a durable store directory (michican-sim
// -store / michican-fleet -store): the stored telemetry stream replays through
// the same forensics pipeline, and the dump shows completed frames, destroyed
// attempts, and incident annotations for any bit-time window of a past run.
//
//	michican-sim -attack dos -trace t.txt && candump t.txt
//	michican-sim -attack spoof -trace t.txt -events e.jsonl
//	candump -events e.jsonl t.txt
//	candump -from-store rundir -window 50000:120000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"michican/internal/can"
	"michican/internal/experiment"
	"michican/internal/forensics"
	"michican/internal/store"
	"michican/internal/telemetry"
	"michican/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "candump:", err)
		os.Exit(1)
	}
}

// run is the whole command; it reads stdin when no trace file is named. A
// bad flag or -h exits as flag.ExitOnError does; every other failure is
// returned.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	eventsIn := fs.String("events", "", "telemetry event stream (JSONL) from the same run; adds incident markers to destroyed attempts")
	fromStore := fs.String("from-store", "", "reconstruct the dump from a durable store directory instead of a bit trace")
	window := fs.String("window", "", "with -from-store: bit-time window from:to (either side open; default the whole recording)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: candump [-events e.jsonl] [file]   (reads stdin without a file)")
		fmt.Fprintln(stderr, "       candump -from-store <dir> [-window from:to]")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	if *fromStore != "" {
		return runFromStore(stdout, *fromStore, *window)
	}

	var (
		data []byte
		err  error
	)
	switch fs.NArg() {
	case 0:
		data, err = io.ReadAll(os.Stdin)
	case 1:
		data, err = os.ReadFile(fs.Arg(0))
	default:
		return fmt.Errorf("at most one input file")
	}
	if err != nil {
		return err
	}

	bits, err := trace.ParseBits(string(data))
	if err != nil {
		return err
	}
	events := trace.Decode(bits, 0)

	var marks *markers
	if *eventsIn != "" {
		if marks, err = loadMarkers(*eventsIn, int64(len(bits))); err != nil {
			return err
		}
	}

	frames, destroyed := 0, 0
	for _, e := range events {
		switch e.Kind {
		case trace.FrameEvent:
			frames++
			switch {
			case e.Frame.FD:
				fmt.Fprintf(stdout, "(%08d) %s  FD [%d] % X\n", e.Start, e.Frame.ID, e.Frame.DLC(), e.Frame.Data)
			case e.Frame.Remote:
				fmt.Fprintf(stdout, "(%08d) %s  remote request [%d]\n", e.Start, e.Frame.ID, e.Frame.RequestLen)
			case e.Frame.Extended:
				fmt.Fprintf(stdout, "(%08d) %s  EXT [%d] % X\n", e.Start, e.Frame.ID, e.Frame.DLC(), e.Frame.Data)
			default:
				fmt.Fprintf(stdout, "(%08d) %s  [%d] % X\n", e.Start, e.Frame.ID, e.Frame.DLC(), e.Frame.Data)
			}
		case trace.ErrorEvent:
			destroyed++
			id := "????"
			if e.IDComplete {
				id = e.ID.String()
			}
			note := ""
			if marks != nil {
				note = marks.annotate(int64(e.Start), int64(e.End))
			}
			fmt.Fprintf(stdout, "(%08d) %s  DESTROYED (error frame after %d bits)%s\n", e.Start, id, e.Bits(), note)
		}
	}
	fmt.Fprintf(stdout, "-- %d bits, %d frames, %d destroyed attempts, bus load %.1f%%\n",
		len(bits), frames, destroyed, trace.Load(events, int64(len(bits)))*100)
	if marks != nil {
		printIncidents(stdout, marks.eng)
	}
	return nil
}

// markers holds the per-instant annotations recovered from the telemetry
// stream plus the reconstructed incidents.
type markers struct {
	detects []detectMark
	pulls   []pullMark
	busOffs []nodeMark
	pending []int64 // open pull starts
	eng     *forensics.Engine
}

type detectMark struct {
	at, bit int64
}

type pullMark struct {
	start, end, bits int64
}

type nodeMark struct {
	at   int64
	node string
}

// loadMarkers reads a JSONL event stream and replays it through a stack
// with a forensics engine — the pipeline a live run uses — collecting the
// per-instant marks for inline annotation.
func loadMarkers(path string, recordingEnd int64) (*markers, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	named, err := telemetry.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	stack := experiment.NewStack(telemetry.NewHub(), experiment.StackConfig{Forensics: true})
	defer stack.Close()
	m := &markers{eng: stack.Forensics}
	for _, ev := range named {
		stack.Hub.Probe(ev.Node).Emit(ev.Time, ev.Kind, ev.A, ev.B)
		m.observe(ev)
	}
	return m, stack.Finalize(recordingEnd)
}

// observe records ev's mark, if it makes one.
func (m *markers) observe(ev telemetry.NamedEvent) {
	switch ev.Kind {
	case telemetry.EvDetect:
		m.detects = append(m.detects, detectMark{at: ev.Time, bit: ev.A})
	case telemetry.EvPullStart:
		m.pending = append(m.pending, ev.Time)
	case telemetry.EvPullEnd:
		start := ev.Time
		if n := len(m.pending); n > 0 {
			start, m.pending = m.pending[n-1], m.pending[:n-1]
		}
		m.pulls = append(m.pulls, pullMark{start: start, end: ev.Time, bits: ev.A})
	case telemetry.EvBusOff:
		m.busOffs = append(m.busOffs, nodeMark{at: ev.Time, node: ev.Node})
	}
}

// runFromStore reconstructs a historical window out of a durable store: the
// stored telemetry stream replays through the forensics pipeline
// (experiment.ReplayStore) and the dump lists completed frames, detections,
// destroyed attempts, and bus-off transitions, closing with the window's
// reconstructed incidents and the stored incident log entries that
// intersect it.
func runFromStore(stdout io.Writer, dir, window string) error {
	from, to, err := store.ParseWindow(window)
	if err != nil {
		return err
	}
	// Each stored event prints as it replays; counterattack spans pair up
	// the way the trace path's markers pair them.
	var (
		marks                     markers
		events, frames, destroyed int
	)
	stack, err := experiment.ReplayStore(dir, from, to, experiment.StackConfig{Forensics: true}, func(ev telemetry.NamedEvent) {
		events++
		marks.observe(ev)
		switch ev.Kind {
		case telemetry.EvTxSuccess:
			frames++
			fmt.Fprintf(stdout, "(%08d) %s  frame completed by %s\n", ev.Time, can.ID(ev.A), ev.Node)
		case telemetry.EvDetect:
			fmt.Fprintf(stdout, "(%08d) %s  DETECT at ID bit %d\n", ev.Time, ev.Node, ev.A)
		case telemetry.EvPullEnd:
			destroyed++
			start := marks.pulls[len(marks.pulls)-1].start
			fmt.Fprintf(stdout, "(%08d) %s  DESTROYED attempt (counterattack %d bits t=%d–%d)\n",
				start, ev.Node, ev.A, start, ev.Time)
		case telemetry.EvBusOff:
			fmt.Fprintf(stdout, "(%08d) %s  BUS-OFF\n", ev.Time, ev.Node)
		case telemetry.EvRecover:
			fmt.Fprintf(stdout, "(%08d) %s  recovered\n", ev.Time, ev.Node)
		}
	})
	if err != nil {
		return err
	}
	defer stack.Close()
	win := window
	if win == "" {
		win = "full recording"
	}
	fmt.Fprintf(stdout, "-- store %s (%s): %d events, %d frames completed, %d destroyed attempts\n",
		dir, win, events, frames, destroyed)
	printIncidents(stdout, stack.Forensics)

	// The durable incident log is the run's own verdict; list the entries
	// whose span intersects the window so a partial-window reconstruction can
	// be checked against what the full run recorded.
	stored := 0
	err = stack.Store.IncidentPayloads(func(p []byte) error {
		inc, err := forensics.DecodeIncident(p)
		if err != nil {
			return err
		}
		if inc.End >= from && inc.Start <= to {
			stored++
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "-- %d stored incidents intersect the window (full log: candump is read-only; see /store/incidents)\n", stored)
	return nil
}

// annotate renders the markers that fall inside one destroyed attempt's wire
// span. The error episode's delimiter tail extends past the last busy bit, so
// bus-off entry (emitted at the TEC step) is matched with the same slack.
func (m *markers) annotate(start, end int64) string {
	const tail = 16
	var parts []string
	for _, d := range m.detects {
		if d.at >= start && d.at <= end+tail {
			parts = append(parts, fmt.Sprintf("detect@bit%d t=%d", d.bit, d.at))
			break
		}
	}
	for _, p := range m.pulls {
		if p.start >= start && p.start <= end+tail {
			parts = append(parts, fmt.Sprintf("counterattack %d bits t=%d–%d", p.bits, p.start, p.end))
			break
		}
	}
	for _, b := range m.busOffs {
		if b.at >= start && b.at <= end+tail {
			parts = append(parts, fmt.Sprintf("%s BUS-OFF", b.node))
			break
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "  [" + strings.Join(parts, "; ") + "]"
}

// printIncidents appends the forensics engine's incident view of the same
// stream under the dump.
func printIncidents(stdout io.Writer, eng *forensics.Engine) {
	incs := eng.Incidents()
	if len(incs) == 0 {
		return
	}
	fmt.Fprintf(stdout, "-- %d incidents reconstructed from the event stream:\n", len(incs))
	for _, inc := range incs {
		line := fmt.Sprintf("   %s  start=%d end=%d (%d bits) attempts=%d", inc.IDHex,
			inc.Start, inc.End, inc.Bits(), inc.Attempts)
		if inc.Attacker != "" {
			line += " attacker=" + inc.Attacker
		}
		if inc.Detections > 0 {
			line += fmt.Sprintf(" detect@bit mean %.1f", inc.DetectionBits.Mean)
		}
		if inc.Eradicated {
			line += fmt.Sprintf(" bus-off@%d", inc.BusOffAt)
			if inc.RecoveredAt >= 0 {
				line += fmt.Sprintf(" recovered@%d", inc.RecoveredAt)
			}
		}
		fmt.Fprintln(stdout, line)
	}
}
