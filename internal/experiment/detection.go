package experiment

import (
	"fmt"

	"michican/internal/can"
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

// detectionDraw is the outcome of evaluating one random FSM. It is kept
// small: the study holds one per draw until the fold.
type detectionDraw struct {
	meanBits float64
	states   int32
	maxBits  int8
	ok       bool
	detected bool
}

// draw builds the FSM of a random ECU on a random IVN of n ECUs into s's
// storage and verifies it over all 2048 IDs. The verification failure comes
// back as miss, apart from err, so each caller decides what a miss means.
func (s *drawState) draw(n int) (d detectionDraw, miss, err error) {
	if err := s.ivn.FillRandom(s.rng, n); err != nil {
		return detectionDraw{}, nil, err
	}
	if err := s.set.Fill(&s.ivn, s.rng.Intn(n)); err != nil {
		return detectionDraw{}, nil, err
	}
	s.machine.Rebuild(&s.set)
	st, miss := s.machine.Stats(&s.set)
	if miss != nil {
		return detectionDraw{}, miss, nil
	}
	return detectionDraw{
		meanBits: st.MeanBits,
		states:   int32(s.machine.Size()),
		maxBits:  int8(st.MaxBits),
		ok:       true,
		detected: st.Detected > 0,
	}, nil, nil
}

// runDetectionDraw evaluates one random FSM of the study from its own
// derived seed. A miss would break the paper's 100% claim; the study counts
// it (ok=false) instead of stopping.
func runDetectionDraw(seed int64, maxECUs int) (detectionDraw, error) {
	s := getDrawState(seed)
	defer drawStates.Put(s)
	d, miss, err := s.draw(2 + s.rng.Intn(maxECUs-1))
	if miss != nil {
		return detectionDraw{ok: false}, nil
	}
	return d, err
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
			if int(d.maxBits) > max {
				max = int(d.maxBits)
			}
		}
		states.Add(float64(d.states))
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
