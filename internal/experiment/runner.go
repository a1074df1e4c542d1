package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map fans n independent trials out across a bounded worker pool and returns
// their results in trial order. It is the experiment package's one
// parallelism primitive: Table2 spreads its six scenarios, DefenseComparison
// its three systems, and the detection studies their FSM draws over it.
//
// workers <= 0 means GOMAXPROCS; workers == 1 runs the trials inline on the
// calling goroutine (the serial reference path — no goroutines, no
// scheduling nondeterminism to even think about). With more workers, trials
// are claimed from a shared atomic counter (work stealing, so a slow trial
// does not idle the pool) but each result lands in its own slot, so the
// returned slice is byte-identical to the serial path as long as fn(i) is a
// pure function of i — derive per-trial randomness with DeriveSeed, never
// from a shared RNG.
//
// On error, the error of the lowest-index failing trial is returned (again
// matching what a serial loop would have reported first).
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		firstIdx = n
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r, err := fn(i)
				if err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// DeriveSeed maps a base seed and a trial index to an independent per-trial
// seed with a splitmix64 finalizer. Trials must never share an RNG (a shared
// stream would make results depend on scheduling order); hashing the index
// into the seed gives every trial its own well-mixed stream while keeping
// the whole study reproducible from the one base seed.
func DeriveSeed(base int64, trial int) int64 {
	z := uint64(base) ^ (uint64(trial)+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
