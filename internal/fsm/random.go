package fsm

import (
	"fmt"
	"math/rand"

	"michican/internal/can"
)

// RandomIVN draws a random in-vehicle network of n distinct CAN IDs using
// the supplied generator. It backs the paper's detection-latency study
// (Sec. V-B evaluates 160,000 random FSMs).
//
// IDs are drawn uniformly until n distinct ones have been seen, discarding
// repeats; that draw sequence defines the study's results, so it must not
// change.
func RandomIVN(rng *rand.Rand, n int) (*IVN, error) {
	v := new(IVN)
	if err := v.FillRandom(rng, n); err != nil {
		return nil, err
	}
	return v, nil
}

// FillRandom overwrites v with a random IVN of n distinct CAN IDs drawn
// exactly as RandomIVN draws them, reusing v's ID storage; on error v is
// unchanged.
func (v *IVN) FillRandom(rng *rand.Rand, n int) error {
	const space = int(can.MaxID) + 1
	if n <= 0 {
		return ErrEmptyIVN
	}
	if n > space {
		return fmt.Errorf("fsm: IVN of %d ECUs needs more than the %d distinct 11-bit CAN IDs", n, space)
	}
	var seen DetectionSet
	for seen.n < n {
		if id := can.ID(rng.Intn(space)); !seen.has(id) {
			seen.set(id)
			seen.n++
		}
	}
	v.ids = seen.appendIDs(v.ids[:0])
	return nil
}
