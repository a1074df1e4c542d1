package experiment

import (
	"encoding/json"
	"errors"
	"fmt"

	"michican/internal/forensics"
	"michican/internal/store"
)

// This file binds fleet vehicles to the durable store: a vehicle's spec is
// its generator (same spec ⇒ bit-identical run), so a vehicle store persists
// the spec in meta.json, streams the hub through a store.Sink, and resume
// means "rebuild the vehicle from the recorded spec and re-advance with the
// sink skipping the already-durable prefix" (DESIGN.md §8.3). No mutable
// simulation state is ever serialized.

// DurableVehicle bundles a fleet vehicle with its store and sink.
type DurableVehicle struct {
	*FleetVehicle
	Store *store.Store
	Sink  *store.Sink
}

// StartDurableVehicle creates a fresh vehicle store at dir (meta.json records
// the spec), builds the vehicle, and attaches a persistence sink. segBytes
// and fsync zero-default per the store package.
func StartDurableVehicle(dir string, spec FleetVehicleSpec, segBytes int64, fsync string, opts store.SinkOptions) (*DurableVehicle, error) {
	cfg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	v, err := NewFleetVehicle(spec)
	if err != nil {
		return nil, err
	}
	st, err := store.Create(dir, store.Meta{Kind: "vehicle", SegmentBytes: segBytes, Fsync: fsync, Config: cfg})
	if err != nil {
		return nil, err
	}
	return &DurableVehicle{FleetVehicle: v, Store: st, Sink: store.NewSink(st, v.Hub(), opts)}, nil
}

// ErrRunComplete reports a store whose final checkpoint says the run already
// reached its horizon — there is nothing to resume.
var ErrRunComplete = errors.New("experiment: stored run already complete")

// ResumeDurableVehicle reopens a vehicle store and prepares the resumed run:
// recover (scan + torn-tail truncation happens in store.Open), rewind to the
// newest usable checkpoint, rebuild the vehicle from the stored spec, and
// attach the sink in skip mode so the regenerated prefix is hash-validated
// against the checkpoint instead of re-appended. The caller then advances
// the vehicle to its horizon exactly as a fresh run would.
//
// A store with no checkpoint resumes from zero (everything regenerates); a
// store whose latest checkpoint is marked Completed returns ErrRunComplete.
func ResumeDurableVehicle(dir string, opts store.SinkOptions) (*DurableVehicle, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	var spec FleetVehicleSpec
	if err := json.Unmarshal(st.Meta().Config, &spec); err != nil {
		st.Close()
		return nil, fmt.Errorf("resume %s: bad vehicle spec in meta.json: %w", dir, err)
	}
	// Build the vehicle before ResumePoint rewinds the logs, so a spec this
	// build cannot run leaves the store untouched.
	v, err := NewFleetVehicle(spec)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("resume %s: %w", dir, err)
	}
	resumeOpts, completed, err := st.ResumePoint()
	if err != nil {
		st.Close()
		return nil, err
	}
	if completed {
		st.Close()
		return nil, ErrRunComplete
	}
	opts.SkipEvents = resumeOpts.SkipEvents
	opts.SkipIncidents = resumeOpts.SkipIncidents
	opts.SkipAlerts = resumeOpts.SkipAlerts
	opts.ExpectPrefixHash = resumeOpts.ExpectPrefixHash
	opts.ExpectIncidentHash = resumeOpts.ExpectIncidentHash
	opts.ExpectAlertHash = resumeOpts.ExpectAlertHash
	opts.ResumeFromBits = resumeOpts.ResumeFromBits
	return &DurableVehicle{FleetVehicle: v, Store: st, Sink: store.NewSink(st, v.Hub(), opts)}, nil
}

// StoredSpec reads the vehicle spec out of an existing store directory
// without opening the logs (fleet roster listing).
func StoredSpec(dir string) (FleetVehicleSpec, error) {
	st, err := store.Open(dir)
	if err != nil {
		return FleetVehicleSpec{}, err
	}
	defer st.Close()
	var spec FleetVehicleSpec
	if err := json.Unmarshal(st.Meta().Config, &spec); err != nil {
		return FleetVehicleSpec{}, err
	}
	return spec, nil
}

// FinalizeDurable persists a finished vehicle: incidents appended through
// the sink (honouring any resume skip cursor), the watch engine's alert log
// likewise (when the spec attached one), then a final Completed checkpoint.
// Safe to call from fleet.Config.OnFinalize — it runs on the worker
// goroutine while the vehicle is still alive.
func (d *DurableVehicle) FinalizeDurable(incs []forensics.Incident) error {
	payloads, err := forensics.EncodeIncidents(incs)
	if err != nil {
		return err
	}
	if err := d.Sink.AppendIncidents(payloads); err != nil {
		return err
	}
	if w := d.Watch(); w != nil {
		alerts, err := w.EncodeAlertLog()
		if err != nil {
			return err
		}
		if err := d.Sink.AppendAlerts(alerts); err != nil {
			return err
		}
	}
	return d.Sink.Close(d.Now(), true)
}

// Close releases the store without finalizing (the next open resumes from
// the last checkpoint, as after a crash).
func (d *DurableVehicle) Close() error {
	return d.Store.Close()
}
