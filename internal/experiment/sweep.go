package experiment

import (
	"fmt"

	"michican/internal/can"
	"michican/internal/stats"
)

// DetectionSweepRow is one point of the detection-latency sweep: how the
// mean FSM decision position grows with the IVN size N. The paper reports a
// single aggregate (mean ≈ 9 bits over 160,000 FSMs) without stating its N
// distribution; the sweep makes the dependence explicit.
type DetectionSweepRow struct {
	// N is the IVN size.
	N int
	// FSMs is the number of random FSMs evaluated at this N.
	FSMs int
	// MeanBits / MaxBits summarize the detection positions.
	MeanBits float64
	MaxBits  int
	// MeanStates is the average FSM size at this N (feeds the CPU model).
	MeanStates float64
}

// String renders the row.
func (r DetectionSweepRow) String() string {
	return fmt.Sprintf("N=%3d  mean detection=%5.2f bits  max=%2d  mean FSM states=%6.0f",
		r.N, r.MeanBits, r.MaxBits, r.MeanStates)
}

// DetectionSweep evaluates per-N detection statistics over random IVNs for
// each N in sizes, with perN FSMs per point. The draws of every point fan
// out over the trial runner — each draw gets a seed derived from (seed, N,
// draw index) and the fold happens in draw order, so the rows are identical
// to a serial evaluation regardless of worker count.
func DetectionSweep(sizes []int, perN int, seed int64) ([]DetectionSweepRow, error) {
	if perN <= 0 {
		return nil, fmt.Errorf("experiment: need perN > 0 FSMs per IVN size, got %d", perN)
	}
	for _, n := range sizes {
		if n < 1 || n > int(can.MaxID)+1 {
			return nil, fmt.Errorf("experiment: IVN size %d outside [1,%d]", n, int(can.MaxID)+1)
		}
	}
	rows := make([]DetectionSweepRow, 0, len(sizes))
	for _, n := range sizes {
		nSeed := DeriveSeed(seed, n)
		draws, err := Map(perN, 0, func(i int) (detectionDraw, error) {
			s := getDrawState(DeriveSeed(nSeed, i))
			defer drawStates.Put(s)
			d, miss, err := s.draw(n)
			if miss != nil {
				return detectionDraw{}, fmt.Errorf("N=%d: %w", n, miss)
			}
			return d, err
		})
		if err != nil {
			return nil, err
		}
		var acc, states stats.Accumulator
		maxBits := 0
		for _, d := range draws {
			if d.detected {
				acc.Add(d.meanBits)
				if int(d.maxBits) > maxBits {
					maxBits = int(d.maxBits)
				}
			}
			states.Add(float64(d.states))
		}
		rows = append(rows, DetectionSweepRow{
			N:          n,
			FSMs:       perN,
			MeanBits:   acc.Mean(),
			MaxBits:    maxBits,
			MeanStates: states.Mean(),
		})
	}
	return rows, nil
}
