package experiment

import (
	"fmt"
	"testing"
)

// TestMapLowestError: with trials failing on several workers, Map returns
// the error of the lowest failing index, as a serial loop would report it.
func TestMapLowestError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		_, err := Map(1000, workers, func(i int) (int, error) {
			if i%97 == 13 {
				return 0, fmt.Errorf("trial %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "trial 13" {
			t.Errorf("workers=%d: %v, want trial 13", workers, err)
		}
		got, err := Map(1000, workers, func(i int) (int, error) { return 2 * i, nil })
		if err != nil || len(got) != 1000 || got[999] != 1998 {
			t.Errorf("workers=%d: clean run returned %d results, err %v", workers, len(got), err)
		}
	}
}
