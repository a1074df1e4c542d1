package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Record framing: every appended record is
//
//	[u32 length][u8 type][payload][u32 crc]
//
// with length = 1 + len(payload) (the type byte plus the payload), both
// integers little-endian, and crc the IEEE CRC-32 of the type byte followed
// by the payload. A torn tail — a partial header, a partial payload, or a
// CRC mismatch from a crash mid-write — is detected on open and truncated
// away; everything before it is intact by construction because records are
// appended strictly in order.
const (
	recHeaderLen  = 5 // u32 length + u8 type
	recTrailerLen = 4 // u32 crc
	// recMaxLen bounds a single record so a corrupted length field cannot
	// drive a giant allocation during recovery.
	recMaxLen = 16 << 20
)

// Record types.
const (
	recEvent      = 1 // one event record (telemetry.AppendEventRecord), format 3
	recIncident   = 2
	recAlert      = 3
	recEventBlock = 4 // one event block (telemetry.BlockEncoder), format 4
)

// recSpan is what a run of records holds: n log entries (events on the
// event log, payloads on the others) and, when timed, the bounds of their
// bit times.
type recSpan struct {
	n          int64
	minT, maxT int64
	timed      bool
}

// add extends s by the records r describes.
func (s *recSpan) add(r recSpan) {
	if r.timed {
		if !s.timed {
			s.minT, s.maxT, s.timed = r.minT, r.maxT, true
		} else {
			s.minT, s.maxT = min(s.minT, r.minT), max(s.maxT, r.maxT)
		}
	}
	s.n += r.n
}

// outside reports whether s's entries all lie outside the window [from, to].
func (s recSpan) outside(from, to int64) bool {
	return s.timed && (s.maxT < from || s.minT > to)
}

// segIndex is the sidecar written when a segment seals: enough to answer
// window queries without reading the segment and to sanity-check recovery.
// Records counts entries (events on the event log), not framed records.
type segIndex struct {
	Records   int64 `json:"records"`
	Bytes     int64 `json:"bytes"`
	FirstTime int64 `json:"first_time"`
	LastTime  int64 `json:"last_time"`
}

// segment is one on-disk segment file of a segLog.
type segment struct {
	seq    int
	bytes  int64
	sealed bool
	recSpan
	// blocks is the block table of a timed log's segment, one entry per
	// record in file order, filled at append and by Open's scan, so a
	// window read seeks to just the records it needs. Untimed logs keep
	// none; a segment that outgrows 32-bit offsets drops its table (wide)
	// and is read whole.
	blocks []blockRef
	wide   bool
}

// blockRef locates one timed record in its segment — the offset and length
// of its frame — and bounds its entries' bit times. 24 bytes.
type blockRef struct {
	off, n     uint32
	minT, maxT int64
}

// table records a timed record of recLen framed bytes appended at the
// segment's end.
func (s *segment) table(recLen int64, sp recSpan) {
	if !sp.timed || s.wide {
		return
	}
	if s.bytes+recLen > math.MaxUint32 {
		s.blocks, s.wide = nil, true
		return
	}
	s.blocks = append(s.blocks, blockRef{off: uint32(s.bytes), n: uint32(recLen), minT: sp.minT, maxT: sp.maxT})
}

// eachRun calls fn with the byte ranges [start, end) of the segment's first
// s.bytes bytes that hold the records overlapping [fromT, toT], adjacent
// records merged into one range. A segment without a block table is one
// range.
func (s *segment) eachRun(fromT, toT int64, fn func(start, end int64) error) error {
	if len(s.blocks) == 0 {
		return fn(0, s.bytes)
	}
	start, end := int64(-1), int64(-1)
	for _, b := range s.blocks {
		off, stop := int64(b.off), int64(b.off)+int64(b.n)
		if stop > s.bytes {
			break // appended after the snapshot was taken
		}
		if b.maxT < fromT || b.minT > toT {
			continue
		}
		if off != end {
			if start >= 0 {
				if err := fn(start, end); err != nil {
					return err
				}
			}
			start = off
		}
		end = stop
	}
	if start < 0 {
		return nil
	}
	return fn(start, end)
}

// segLog is an append-only, CRC-framed, segmented record log. The active
// (last) segment takes appends through a buffered writer; when an append
// would push it past segBytes it seals — index written, file synced — and a
// new segment opens. Roll decisions are made per record against cumulative
// byte counts, so the segment layout is a pure function of the record stream
// and never depends on flush or sync cadence; that is what lets a resumed
// run's store converge byte-for-byte with an uninterrupted run's.
type segLog struct {
	dir      string
	prefix   string
	segBytes int64
	// spanOf reads what one record holds from its type and payload; nil on
	// the incident and alert logs, whose records hold one untimed entry each.
	spanOf func(typ byte, payload []byte) (recSpan, error)

	segs []segment
	f    *os.File
	// bw is created on the first append: the incident and alert logs are
	// written only at finalize, so most of a run holds no buffer for them.
	bw     *bufio.Writer
	active *segment // == &segs[len(segs)-1]

	count int64  // entries across all segments
	rec   []byte // append's framing scratch, reused across records
	// dirty marks appends or a truncation not yet fsynced; sync skips a
	// clean log. syncs counts the segment fsyncs issued.
	dirty bool
	syncs int64
}

// Buffer sizes: writeBufBytes for the one buffered writer a log reuses
// across its segments, readBufBytes caps the one buffered reader a read
// reuses across the segments it visits (sized to the largest of them).
const (
	writeBufBytes = 64 << 10
	readBufBytes  = 256 << 10
)

func segName(prefix string, seq int) string { return fmt.Sprintf("%s-%06d.seg", prefix, seq) }
func idxName(prefix string, seq int) string { return fmt.Sprintf("%s-%06d.idx", prefix, seq) }
func (l *segLog) segPath(seq int) string    { return filepath.Join(l.dir, segName(l.prefix, seq)) }
func (l *segLog) idxPath(seq int) string    { return filepath.Join(l.dir, idxName(l.prefix, seq)) }

// newSegLog creates an empty log with its first segment open.
func newSegLog(dir, prefix string, segBytes int64, spanOf func(byte, []byte) (recSpan, error)) (*segLog, error) {
	l := &segLog{dir: dir, prefix: prefix, segBytes: segBytes, spanOf: spanOf}
	if err := l.openSegment(1); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegLog reopens an existing log, scanning every segment, truncating any
// torn tail, and reopening the last segment for append. Missing files mean
// an empty log (a fresh first segment is created).
func openSegLog(dir, prefix string, segBytes int64, spanOf func(byte, []byte) (recSpan, error)) (*segLog, error) {
	l := &segLog{dir: dir, prefix: prefix, segBytes: segBytes, spanOf: spanOf}
	names, err := filepath.Glob(filepath.Join(dir, prefix+"-*.seg"))
	if err != nil {
		return nil, err
	}
	seqs := make([]int, 0, len(names))
	for _, n := range names {
		base := filepath.Base(n)
		num := strings.TrimSuffix(strings.TrimPrefix(base, prefix+"-"), ".seg")
		seq, err := strconv.Atoi(num)
		if err != nil {
			return nil, fmt.Errorf("store: stray segment file %s", base)
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	if len(seqs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	torn := false
	var buf []byte // one read buffer for every segment scanned
	for i, seq := range seqs {
		if torn {
			// Everything after a torn segment is unreachable garbage from a
			// crash mid-roll; drop it.
			os.Remove(l.segPath(seq))
			os.Remove(l.idxPath(seq))
			continue
		}
		seg, tornHere, err := l.scanSegment(seq, &buf)
		if err != nil {
			return nil, err
		}
		seg.sealed = i < len(seqs)-1 && !tornHere
		l.segs = append(l.segs, seg)
		l.count += seg.n
		torn = tornHere
	}
	last := &l.segs[len(l.segs)-1]
	last.sealed = false
	os.Remove(l.idxPath(last.seq)) // the reopened tail is active again
	f, err := os.OpenFile(l.segPath(last.seq), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l.activate(f, last)
	l.dirty = torn // a cut tail reaches the disk with the next sync
	return l, nil
}

// scanSegment validates one segment record by record, reading it into *buf
// (grown as needed and kept for the next segment): one CRC per record, and
// the record's entry count and time bounds from its header alone. A torn or
// corrupt tail truncates the file at the last valid record boundary;
// tornHere reports that this happened (later segments are then dropped by
// the caller). A record whose CRC holds but whose header does not parse is
// not a torn write, so it fails the open instead of being cut away.
func (l *segLog) scanSegment(seq int, buf *[]byte) (segment, bool, error) {
	seg := segment{seq: seq}
	path := l.segPath(seq)
	data, err := readFileInto(*buf, path)
	if err != nil {
		return seg, false, err
	}
	*buf = data
	off := int64(0)
	torn := false
	for int64(len(data))-off >= recHeaderLen+recTrailerLen {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n < 1 || n > recMaxLen || off+4+n+recTrailerLen > int64(len(data)) {
			torn = true
			break
		}
		body := data[off+4 : off+4+n]
		crc := binary.LittleEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(body) != crc {
			torn = true
			break
		}
		sp, err := l.recordSpan(body)
		if err != nil {
			return seg, false, fmt.Errorf("store: %s byte %d: %w", segName(l.prefix, seq), off, err)
		}
		seg.bytes = off
		seg.table(4+n+recTrailerLen, sp)
		seg.add(sp)
		off += 4 + n + recTrailerLen
	}
	if off != int64(len(data)) {
		torn = true
		if err := os.Truncate(path, off); err != nil {
			return seg, true, err
		}
	}
	seg.bytes = off
	return seg, torn, nil
}

// readFileInto reads the whole file at path into buf, growing it only when
// the file is larger, and returns the filled slice.
func readFileInto(buf []byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(fi.Size())
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// recordSpan reads what one framed body (type byte + payload) holds.
func (l *segLog) recordSpan(body []byte) (recSpan, error) {
	if l.spanOf == nil {
		return recSpan{n: 1}, nil
	}
	return l.spanOf(body[0], body[1:])
}

// openSegment creates and activates a fresh segment file.
func (l *segLog) openSegment(seq int) error {
	f, err := os.OpenFile(l.segPath(seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.segs = append(l.segs, segment{seq: seq})
	l.activate(f, &l.segs[len(l.segs)-1])
	return nil
}

// activate makes f, the file of seg, the active segment. Every segment of a
// log appends through the same buffered writer; it is always flushed before
// its file changes.
func (l *segLog) activate(f *os.File, seg *segment) {
	if l.bw != nil {
		l.bw.Reset(f)
	}
	l.f, l.active = f, seg
}

// seal closes the active segment: flush, fsync, index sidecar.
func (l *segLog) seal() error {
	if err := l.flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.dirty = false
	if err := l.f.Close(); err != nil {
		return err
	}
	a := l.active
	a.sealed = true
	first, last := int64(-1), int64(-1)
	if a.timed {
		first, last = a.minT, a.maxT
	}
	idx, err := json.Marshal(segIndex{Records: a.n, Bytes: a.bytes, FirstTime: first, LastTime: last})
	if err != nil {
		return err
	}
	// The index sidecar is a derived summary, never load-bearing: recovery
	// rescans the segment bytes and deletes stale sidecars. A plain write
	// keeps segment rolls from paying a second fsync + rename for a file a
	// crash is allowed to tear.
	return os.WriteFile(l.idxPath(a.seq), append(idx, '\n'), 0o644)
}

// append frames and writes one record holding sp, rolling the active segment
// first when the record would push it past segBytes.
func (l *segLog) append(typ byte, payload []byte, sp recSpan) (int64, error) {
	recLen := int64(recHeaderLen + len(payload) + recTrailerLen)
	if l.active.bytes > 0 && l.active.bytes+recLen > l.segBytes {
		if err := l.seal(); err != nil {
			return 0, err
		}
		if err := l.openSegment(l.active.seq + 1); err != nil {
			return 0, err
		}
	}
	// The whole record is framed in the log's scratch buffer and written
	// with one call: header and trailer arrays passed to Write separately
	// would escape to the heap, two allocations per record.
	rec := binary.LittleEndian.AppendUint32(l.rec[:0], uint32(1+len(payload)))
	rec = append(rec, typ)
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(rec[4:]))
	l.rec = rec
	if l.bw == nil {
		l.bw = bufio.NewWriterSize(l.f, writeBufBytes)
	}
	if _, err := l.bw.Write(rec); err != nil {
		return 0, err
	}
	a := l.active
	a.table(recLen, sp)
	a.bytes += recLen
	a.add(sp)
	l.count += sp.n
	l.dirty = true
	return recLen, nil
}

// flush pushes buffered writes to the OS.
func (l *segLog) flush() error {
	if l.bw == nil {
		return nil
	}
	return l.bw.Flush()
}

// sync flushes and fsyncs the active segment when the log holds anything
// not yet fsynced, and reports whether it did.
func (l *segLog) sync() (bool, error) {
	if !l.dirty {
		return false, nil
	}
	if err := l.flush(); err != nil {
		return false, err
	}
	if err := l.f.Sync(); err != nil {
		return false, err
	}
	l.syncs++
	l.dirty = false
	return true, nil
}

// close flushes and closes the active segment without sealing it (it reopens
// as the active tail on the next open).
func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	if err := l.flush(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// truncate rewinds the log to exactly n entries: the segment holding entry n
// is cut at that record boundary and reopened as the active tail, and every
// later segment is deleted. This is the recovery protocol's rewind to a
// checkpoint cursor — the un-checkpointed tail is regenerated bit-identical
// by the resumed simulation. A cursor that falls inside a record (an event
// block) is refused before anything changes.
func (l *segLog) truncate(n int64) error {
	if n > l.count {
		return fmt.Errorf("store: truncate %s to %d entries but only %d on disk", l.prefix, n, l.count)
	}
	if n == l.count {
		return nil
	}
	if err := l.flush(); err != nil {
		return err
	}
	// Find the segment holding entry n (the first keep entries of it).
	var cum int64
	cut := len(l.segs) - 1
	for i := range l.segs {
		if cum+l.segs[i].n >= n {
			cut = i
			break
		}
		cum += l.segs[i].n
	}
	seg := &l.segs[cut]
	off, kept, err := l.prefixOf(seg.seq, n-cum)
	if err != nil {
		return err
	}
	if err := l.close(); err != nil {
		return err
	}
	for _, s := range l.segs[cut+1:] {
		if err := os.Remove(l.segPath(s.seq)); err != nil {
			return err
		}
		os.Remove(l.idxPath(s.seq))
	}
	l.segs = l.segs[:cut+1]
	seg = &l.segs[cut]
	os.Remove(l.idxPath(seg.seq))
	seg.sealed = false
	if err := os.Truncate(l.segPath(seg.seq), off); err != nil {
		return err
	}
	seg.bytes, seg.recSpan = off, kept
	for len(seg.blocks) > 0 && int64(seg.blocks[len(seg.blocks)-1].off) >= off {
		seg.blocks = seg.blocks[:len(seg.blocks)-1]
	}
	f, err := os.OpenFile(l.segPath(seg.seq), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.activate(f, seg)
	l.count = n
	l.dirty = true
	return nil
}

// prefixOf walks a segment's record headers to the boundary after its first
// keep entries and returns that byte offset and what the records before it
// hold.
func (l *segLog) prefixOf(seq int, keep int64) (int64, recSpan, error) {
	var kept recSpan
	if keep == 0 {
		return 0, kept, nil
	}
	data, err := os.ReadFile(l.segPath(seq))
	if err != nil {
		return 0, kept, err
	}
	off := int64(0)
	for kept.n < keep {
		if int64(len(data))-off < recHeaderLen+recTrailerLen {
			return 0, kept, fmt.Errorf("store: %s segment %d shorter than %d entries", l.prefix, seq, keep)
		}
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if off+4+n+recTrailerLen > int64(len(data)) {
			return 0, kept, fmt.Errorf("store: %s segment %d shorter than %d entries", l.prefix, seq, keep)
		}
		sp, err := l.recordSpan(data[off+4 : off+4+n])
		if err != nil {
			return 0, kept, err
		}
		if kept.n+sp.n > keep {
			return 0, kept, fmt.Errorf("store: %s cursor falls inside a record of segment %d: %d entries precede it, %d end it",
				l.prefix, seq, kept.n, kept.n+sp.n)
		}
		kept.add(sp)
		off += 4 + n + recTrailerLen
	}
	return off, kept, nil
}

// snapshot flushes the log and copies its segment table. Reading the copy
// through readSegments needs no lock while only appends run: they never
// change a sealed segment and only extend the active file past the copied
// byte count. truncate does cut and delete segments, so reads must not
// overlap it.
func (l *segLog) snapshot() ([]segment, error) {
	if err := l.flush(); err != nil {
		return nil, err
	}
	return slices.Clone(l.segs), nil
}

// readSegments streams the records of a snapshot in append order through
// fn, which receives the record type and payload (valid only during the
// call). Segments and records whose event times fall entirely outside
// [fromT, toT] are skipped on their bounds (use math.MinInt64/MaxInt64 to
// scan everything): a segment with a block table is read only over the
// byte ranges of its overlapping records. Every record read is CRC-checked.
// A delivered record may still hold events outside the window — callers
// filter.
func (l *segLog) readSegments(segs []segment, fromT, toT int64, fn func(typ byte, payload []byte) error) error {
	// One buffered reader serves every range, sized to the longest.
	var size int64
	for i := range segs {
		if seg := &segs[i]; seg.n > 0 && !seg.outside(fromT, toT) {
			seg.eachRun(fromT, toT, func(start, end int64) error {
				size = max(size, min(end-start, readBufBytes))
				return nil
			})
		}
	}
	var br *bufio.Reader
	var buf []byte
	for i := range segs {
		seg := &segs[i]
		if seg.n == 0 || seg.outside(fromT, toT) {
			continue
		}
		f, err := os.Open(l.segPath(seg.seq))
		if err != nil {
			return err
		}
		err = seg.eachRun(fromT, toT, func(start, end int64) error {
			r := io.NewSectionReader(f, start, end-start)
			if br == nil {
				br = bufio.NewReaderSize(r, int(size))
			} else {
				br.Reset(r)
			}
			var err error
			buf, err = l.readRange(seg.seq, end-start, br, buf, fromT, toT, fn)
			return err
		})
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// readRange streams the records in the next length bytes of segment seq
// that overlap [fromT, toT] through fn, reading via br and framing into
// buf, which it returns for reuse.
func (l *segLog) readRange(seq int, length int64, br *bufio.Reader, buf []byte, fromT, toT int64, fn func(typ byte, payload []byte) error) ([]byte, error) {
	var hdr [4]byte
	for off := int64(0); off < length; {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return buf, fmt.Errorf("store: %s ends inside a record: %w", segName(l.prefix, seq), err)
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 1 || n > recMaxLen {
			return buf, fmt.Errorf("store: corrupt record length %d in %s", n, segName(l.prefix, seq))
		}
		if cap(buf) < n+recTrailerLen {
			buf = make([]byte, n+recTrailerLen)
		}
		buf = buf[:n+recTrailerLen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return buf, fmt.Errorf("store: %s ends inside a record: %w", segName(l.prefix, seq), err)
		}
		crc := binary.LittleEndian.Uint32(buf[n:])
		if crc32.ChecksumIEEE(buf[:n]) != crc {
			return buf, fmt.Errorf("store: CRC mismatch in %s", segName(l.prefix, seq))
		}
		off += int64(4 + n + recTrailerLen)
		sp, err := l.recordSpan(buf[:n])
		if err != nil {
			return buf, err
		}
		if sp.outside(fromT, toT) {
			continue
		}
		if err := fn(buf[0], buf[1:n]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// diskBytes sums the on-disk size of every segment.
func (l *segLog) diskBytes() int64 {
	var total int64
	for _, s := range l.segs {
		total += s.bytes
	}
	return total
}

// writeFileAtomic writes data to path via a temp file + rename, so a crash
// never leaves a half-written file under the final name.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
