package store

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ResumePoint rewinds an opened store to its newest usable checkpoint and
// returns opts with the skip cursor a resuming sink needs filled in
// (DESIGN.md §8.3). A store with no checkpoint rewinds to empty — the whole
// run regenerates. completed reports a store whose final checkpoint says the
// run already reached its horizon; the returned options are then zero and the
// store is left untouched.
//
// An unfinished store written in an older format cannot be resumed by this
// build; the error says so before anything is truncated.
func (s *Store) ResumePoint(opts SinkOptions) (_ SinkOptions, completed bool, err error) {
	cp, err := s.LatestCheckpoint()
	switch {
	case errors.Is(err, ErrNoCheckpoint):
		cp = Checkpoint{}
	case err != nil:
		return SinkOptions{}, false, err
	case cp.Completed:
		return SinkOptions{}, true, nil
	}
	if v := s.meta.FormatVersion; v != FormatVersion {
		return SinkOptions{}, false, fmt.Errorf("store: format %d store cannot be resumed by this build (format %d); it can still be read and replayed", v, FormatVersion)
	}
	if err := s.TruncateTo(cp); err != nil {
		return SinkOptions{}, false, err
	}
	opts.SkipEvents, opts.SkipIncidents, opts.SkipAlerts = cp.Events, cp.Incidents, cp.Alerts
	opts.ExpectPrefixHash, opts.ExpectIncidentHash, opts.ExpectAlertHash = cp.PrefixHash, cp.IncidentHash, cp.AlertHash
	opts.ResumeFromBits = cp.TimeBits
	return opts, false, nil
}

// OpenWindowEnd is the end ParseWindow gives a window with an open end.
const OpenWindowEnd = int64(1) << 62

// ParseWindow parses a bit-time window written as "from:to". Either side may
// be empty to leave that side open ("5000:" is everything from bit 5000 on;
// ":" or "" is the whole recording); a bare "N" means from=N with an open
// end. The returned to is exclusive-ish in the EventsInWindow sense (events
// with Time in [from, to] are included) and defaults to a practically
// unbounded value, OpenWindowEnd, when open.
func ParseWindow(s string) (from, to int64, err error) {
	from, to = 0, OpenWindowEnd
	s = strings.TrimSpace(s)
	if s == "" {
		return from, to, nil
	}
	lo, hi, found := strings.Cut(s, ":")
	if lo = strings.TrimSpace(lo); lo != "" {
		if from, err = strconv.ParseInt(lo, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad window start %q", lo)
		}
	}
	if hi = strings.TrimSpace(hi); found && hi != "" {
		if to, err = strconv.ParseInt(hi, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad window end %q", hi)
		}
	}
	if to < from {
		return 0, 0, fmt.Errorf("empty window %q: start %d past end %d", s, from, to)
	}
	return from, to, nil
}
