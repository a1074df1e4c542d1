package core

import (
	"testing"

	"michican/internal/can"
	"michican/internal/memo/memotest"
)

// TestScanMemoAtBounds checks the passive-scan memo, as the defense builds
// it, at its initial size, growth trigger and cap.
func TestScanMemoAtBounds(t *testing.T) {
	levels := make([]can.Level, 10<<scanSlotBits)
	memotest.CheckBounds(t, newScanCache(), scanSlotBits,
		func(i int) scanKey { return scanKey{ptr: &levels[i], mode: uint8(i % scanModeJoinSelf)} },
		func(i int) scanMemo { return scanMemo{scanned: int32(1 + i%100), stop: int32(i % 100)} })
}
