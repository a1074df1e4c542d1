package experiment

import (
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
	db, err := newDefendedBus(spec.busSpec())
	if err != nil {
		return nil, fmt.Errorf("fleet vehicle %d: %w", spec.Index, err)
	}
	st, err := CreateStore(dir, store.Meta{Kind: "vehicle", SegmentBytes: segBytes, Fsync: fsync}, spec)
	if err != nil {
		return nil, err
	}
	v := spec.vehicle(db, StackConfig{Store: st, Sink: opts})
	return &DurableVehicle{FleetVehicle: v, Store: st, Sink: v.stack.Sink}, nil
}

// ResumeDurableVehicle reopens a vehicle store and prepares the resumed run
// (ResumeStore): recover (scan + torn-tail truncation happens in
// store.Open), rebuild the vehicle from the stored spec, rewind to the
// newest usable checkpoint, and attach the sink in skip mode so the
// regenerated prefix is hash-validated against the checkpoint instead of
// re-appended. The caller then advances the vehicle to its horizon exactly
// as a fresh run would.
//
// A store with no checkpoint resumes from zero (everything regenerates); a
// store whose latest checkpoint is marked Completed returns ErrRunComplete.
func ResumeDurableVehicle(dir string, opts store.SinkOptions) (*DurableVehicle, error) {
	var (
		spec FleetVehicleSpec
		db   defendedBus
	)
	st, opts, err := ResumeStore(dir, &spec, opts, func() (err error) {
		db, err = newDefendedBus(spec.busSpec())
		return err
	})
	if err != nil {
		return nil, err
	}
	v := spec.vehicle(db, StackConfig{Store: st, Sink: opts})
	return &DurableVehicle{FleetVehicle: v, Store: st, Sink: v.stack.Sink}, nil
}

// FinalizeDurable persists a finished vehicle: incidents appended through
// the sink (honouring any resume skip cursor), the watch engine's alert log
// likewise (when the spec attached one), then a final Completed checkpoint.
// Safe to call from fleet.Config.OnFinalize — it runs on the worker
// goroutine while the vehicle is still alive.
func (d *DurableVehicle) FinalizeDurable(incs []forensics.Incident) error {
	return d.stack.seal(incs, d.Now())
}

// Close detaches the vehicle's stack without finalizing and closes the
// store: the next open resumes from the last checkpoint, as after a crash.
func (d *DurableVehicle) Close() error {
	return d.stack.Close()
}
