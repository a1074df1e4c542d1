package watch

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DashboardVehicle is one row of the live dashboard's fleet table,
// assembled by the CLI from the fleet's atomic mirrors.
type DashboardVehicle struct {
	ID          int
	Worker      int
	NowBits     int64
	HorizonBits int64
	Done        bool
	Incidents   int
	Active      int // currently-firing alerts
}

// DashboardData is everything RenderDashboard needs for one frame. The CLI
// assembles it from lock-free mirrors (fleet.Vehicles, FleetCollector
// snapshots) so rendering never stalls a worker.
type DashboardData struct {
	Title      string
	Elapsed    time.Duration
	BitsPerSec float64
	Vehicles   []DashboardVehicle
	View       FleetAlertView
}

// ANSI fragments for the dashboard. Kept as plain constants so tests can
// strip them.
const (
	ansiClear  = "\x1b[2J\x1b[H"
	ansiBold   = "\x1b[1m"
	ansiDim    = "\x1b[2m"
	ansiRed    = "\x1b[31m"
	ansiYellow = "\x1b[33m"
	ansiGreen  = "\x1b[32m"
	ansiReset  = "\x1b[0m"
)

func sevColor(sev string) string {
	switch sev {
	case SevCritical.String():
		return ansiRed
	case SevWarning.String():
		return ansiYellow
	default:
		return ansiDim
	}
}

// RenderDashboard renders one full-screen frame of the michican-top live
// view: header, fleet SLO scoreboard, active alerts (worst first), health
// issues, and a per-vehicle progress table. Pure string assembly — the
// caller owns the terminal.
func RenderDashboard(d DashboardData) string {
	var b strings.Builder
	b.WriteString(ansiClear)

	// Header.
	fmt.Fprintf(&b, "%smichican-top%s  %s  elapsed %s  %.2f Mbit/s sim\n",
		ansiBold, ansiReset, d.Title, d.Elapsed.Round(time.Second), d.BitsPerSec/1e6)

	// SLO scoreboard.
	s := d.View.SLO
	detState := ansiGreen + "ok" + ansiReset
	if s.DetectionViolations > 0 {
		detState = ansiRed + fmt.Sprintf("%d violations", s.DetectionViolations) + ansiReset
	}
	leakState := ansiGreen + "0 leaked" + ansiReset
	if s.FramesLeaked > 0 {
		leakState = ansiRed + fmt.Sprintf("%d leaked", s.FramesLeaked) + ansiReset
	}
	eradState := ansiGreen + fmt.Sprintf("%d/%d", s.Eradications, s.Eradications+s.EradicationFailures) + ansiReset
	if s.EradicationFailures > 0 {
		eradState = ansiRed + fmt.Sprintf("%d/%d", s.Eradications, s.Eradications+s.EradicationFailures) + ansiReset
	}
	fmt.Fprintf(&b, "\n%sSLO%s  engaged %d  detect p50/p99 %.0f/%.0f bits (%s)  eradicate %s  frames %s\n",
		ansiBold, ansiReset, s.EngagedIncidents,
		s.DetectionP50Bits, s.DetectionP99Bits, detState, eradState, leakState)

	// Active alerts, worst severity first, then rule name.
	fmt.Fprintf(&b, "\n%sALERTS%s (%d active)\n", ansiBold, ansiReset, d.View.ActiveTotal)
	type row struct {
		vid int
		a   Alert
	}
	var rows []row
	for _, v := range d.View.Vehicles {
		for _, a := range v.Active {
			rows = append(rows, row{v.ID, a})
		}
	}
	sevRank := map[string]int{SevCritical.String(): 0, SevWarning.String(): 1, SevInfo.String(): 2}
	sort.Slice(rows, func(i, j int) bool {
		if ri, rj := sevRank[rows[i].a.Severity], sevRank[rows[j].a.Severity]; ri != rj {
			return ri < rj
		}
		if rows[i].a.Rule != rows[j].a.Rule {
			return rows[i].a.Rule < rows[j].a.Rule
		}
		return rows[i].vid < rows[j].vid
	})
	const maxAlertRows = 12
	for i, r := range rows {
		if i == maxAlertRows {
			fmt.Fprintf(&b, "  %s… %d more%s\n", ansiDim, len(rows)-maxAlertRows, ansiReset)
			break
		}
		fmt.Fprintf(&b, "  %s%-8s%s v%-4d %-20s t=%-12d %s\n",
			sevColor(r.a.Severity), r.a.Severity, ansiReset, r.vid, r.a.Rule, r.a.Time, r.a.Reason)
	}
	if len(rows) == 0 {
		fmt.Fprintf(&b, "  %snone%s\n", ansiGreen, ansiReset)
	}

	// Wall-clock health issues.
	if len(d.View.Health) > 0 {
		fmt.Fprintf(&b, "\n%sHEALTH%s\n", ansiBold, ansiReset)
		for _, is := range d.View.Health {
			fmt.Fprintf(&b, "  %s%-8s%s %-14s %s\n",
				sevColor(is.Severity), is.Severity, ansiReset, is.Rule, is.Reason)
		}
	}

	// Vehicle progress table.
	fmt.Fprintf(&b, "\n%sVEHICLES%s (%d)\n", ansiBold, ansiReset, len(d.Vehicles))
	fmt.Fprintf(&b, "  %sid    wrk   progress                    now-bits        inc  alerts%s\n", ansiDim, ansiReset)
	const maxVehicleRows = 24
	for i, v := range d.Vehicles {
		if i == maxVehicleRows {
			fmt.Fprintf(&b, "  %s… %d more%s\n", ansiDim, len(d.Vehicles)-maxVehicleRows, ansiReset)
			break
		}
		frac := 0.0
		if v.HorizonBits > 0 {
			frac = float64(v.NowBits) / float64(v.HorizonBits)
			if frac > 1 {
				frac = 1
			}
		}
		const barW = 20
		filled := int(frac * barW)
		bar := strings.Repeat("█", filled) + strings.Repeat("░", barW-filled)
		state := " "
		if v.Done {
			state = ansiGreen + "✓" + ansiReset
		}
		alerts := fmt.Sprintf("%d", v.Active)
		if v.Active > 0 {
			alerts = ansiRed + alerts + ansiReset
		}
		fmt.Fprintf(&b, "  %-5d %-5d %s %3.0f%% %s %-15d %-4d %s\n",
			v.ID, v.Worker, bar, frac*100, state, v.NowBits, v.Incidents, alerts)
	}
	return b.String()
}

// StripANSI removes the escape sequences RenderDashboard emits — for tests
// and for piping the dashboard to a file.
func StripANSI(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == 0x1b {
			for i < len(s) && s[i] != 'm' && s[i] != 'H' && s[i] != 'J' {
				i++
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
