package experiment

import (
	"fmt"

	"michican/internal/can"
	"michican/internal/fsm"
	"michican/internal/stats"
)

// DetectionResult summarizes the Sec. V-B study: random IVNs, one FSM per
// draw, 100% detection verification, and the detection bit position
// distribution (the paper reports a mean of ~9 bits over 160,000 FSMs).
type DetectionResult struct {
	// FSMs is the number of random FSMs evaluated.
	FSMs int
	// DetectionRate is the fraction of FSMs that classified every ID
	// correctly (the paper verifies 100%).
	DetectionRate float64
	// MeanBits / StdBits / MaxBits summarize the per-FSM mean detection bit
	// position.
	MeanBits, StdBits float64
	MaxBits           int
	// MeanFSMStates is the average FSM size, feeding the CPU-load study.
	MeanFSMStates float64
}

// String renders the result.
func (r DetectionResult) String() string {
	return fmt.Sprintf("FSMs=%d  detection rate=%.2f%%  mean detection position=%.2f bits  (σ=%.2f, max=%d)  mean FSM states=%.0f",
		r.FSMs, r.DetectionRate*100, r.MeanBits, r.StdBits, r.MaxBits, r.MeanFSMStates)
}

// detectionDraw is the outcome of evaluating one random FSM.
type detectionDraw struct {
	ok       bool
	detected bool
	meanBits float64
	maxBits  int
	states   float64
}

// runDetectionDraw evaluates one random FSM from its own derived seed.
func runDetectionDraw(seed int64, maxECUs int) (detectionDraw, error) {
	rng := getDrawRNG(seed)
	defer drawRNGs.Put(rng)
	nECUs := 2 + rng.Intn(maxECUs-1)
	ivn, err := fsm.RandomIVN(rng, nECUs)
	if err != nil {
		return detectionDraw{}, err
	}
	ds, err := fsm.NewDetectionSet(ivn, rng.Intn(nECUs))
	if err != nil {
		return detectionDraw{}, err
	}
	machine := fsm.Build(ds)
	st, err := machine.Stats(ds)
	if err != nil {
		// A miss would break the paper's 100% claim; count it (ok=false).
		return detectionDraw{}, nil
	}
	return detectionDraw{
		ok:       true,
		detected: st.Detected > 0,
		meanBits: st.MeanBits,
		maxBits:  st.MaxBits,
		states:   float64(machine.Size()),
	}, nil
}

// DetectionLatency runs the Sec. V-B study over n random FSMs drawn from
// IVNs of 2..maxECUs ECUs; maxECUs must lie in [2, 2048], the 11-bit ID
// space. The draws fan out over the trial runner with one derived seed per
// draw and are folded in draw order, so the result is identical regardless
// of worker count or CPU count.
func DetectionLatency(n, maxECUs int, seed int64) (DetectionResult, error) {
	if n <= 0 {
		return DetectionResult{}, fmt.Errorf("experiment: need n > 0 FSMs")
	}
	if maxECUs < 2 {
		return DetectionResult{}, fmt.Errorf("experiment: need maxECUs >= 2, got %d", maxECUs)
	}
	if maxECUs > int(can.MaxID)+1 {
		return DetectionResult{}, fmt.Errorf("experiment: %d ECUs exceed the %d 11-bit CAN IDs", maxECUs, int(can.MaxID)+1)
	}
	draws, err := Map(n, 0, func(i int) (detectionDraw, error) {
		return runDetectionDraw(DeriveSeed(seed, i), maxECUs)
	})
	if err != nil {
		return DetectionResult{}, err
	}
	var acc, states stats.Accumulator
	ok, max := 0, 0
	for _, d := range draws {
		if !d.ok {
			continue
		}
		ok++
		if d.detected {
			acc.Add(d.meanBits)
			if d.maxBits > max {
				max = d.maxBits
			}
		}
		states.Add(d.states)
	}
	return DetectionResult{
		FSMs:          n,
		DetectionRate: float64(ok) / float64(n),
		MeanBits:      acc.Mean(),
		StdBits:       acc.StdDev(),
		MaxBits:       max,
		MeanFSMStates: states.Mean(),
	}, nil
}
