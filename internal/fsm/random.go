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
	const space = int(can.MaxID) + 1
	if n <= 0 {
		return nil, ErrEmptyIVN
	}
	if n > space {
		return nil, fmt.Errorf("fsm: IVN of %d ECUs needs more than the %d distinct 11-bit CAN IDs", n, space)
	}
	var seen DetectionSet
	for seen.n < n {
		if id := can.ID(rng.Intn(space)); !seen.has(id) {
			seen.set(id)
			seen.n++
		}
	}
	return &IVN{ids: seen.IDs()}, nil
}
