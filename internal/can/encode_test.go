package can

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldGeometry(t *testing.T) {
	// The constants encode the CAN 2.0A layout; pin them so a refactor
	// cannot silently shift field boundaries.
	if PosRTR != 12 || PosIDE != 13 || PosR0 != 14 || PosDLCStart != 15 || PosDataStart != 19 {
		t.Fatalf("field geometry changed: RTR=%d IDE=%d r0=%d DLC=%d data=%d",
			PosRTR, PosIDE, PosR0, PosDLCStart, PosDataStart)
	}
}

func TestUnstuffedLen(t *testing.T) {
	for dlc := 0; dlc <= 8; dlc++ {
		want := 19 + 8*dlc + 15
		if got := UnstuffedLen(dlc); got != want {
			t.Errorf("UnstuffedLen(%d) = %d, want %d", dlc, got, want)
		}
	}
}

func TestNominalFrameLen(t *testing.T) {
	// The classic figure: a frame with n data bytes is 44+8n bits before
	// stuffing (SOF..EOF).
	for dlc := 0; dlc <= 8; dlc++ {
		if got := NominalFrameLen(dlc); got != 44+8*dlc {
			t.Errorf("NominalFrameLen(%d) = %d, want %d", dlc, got, 44+8*dlc)
		}
	}
}

func TestUnstuffedBodyLayout(t *testing.T) {
	f := Frame{ID: 0x555, Data: []byte{0xF0}}
	body := UnstuffedBody(&f)
	if len(body) != UnstuffedLen(1) {
		t.Fatalf("body length %d, want %d", len(body), UnstuffedLen(1))
	}
	if body[PosSOF] != Dominant {
		t.Error("SOF must be dominant")
	}
	for i := 0; i < IDBits; i++ {
		if body[PosIDStart+i] != f.ID.Bit(i) {
			t.Errorf("ID bit %d mismatch", i)
		}
	}
	if body[PosRTR] != Dominant || body[PosIDE] != Dominant || body[PosR0] != Dominant {
		t.Error("RTR/IDE/r0 must be dominant in a base data frame")
	}
	if got := DecodeField(body, PosDLCStart, DLCBits); got != 1 {
		t.Errorf("DLC = %d, want 1", got)
	}
	if got := DecodeField(body, PosDataStart, 8); got != 0xF0 {
		t.Errorf("data byte = %#x, want 0xF0", got)
	}
}

func TestWireBitsTrailer(t *testing.T) {
	f := Frame{ID: 0x1}
	wire := WireBits(&f, Dominant)
	// The last 7 bits are the recessive EOF.
	for i := len(wire) - EOFBits; i < len(wire); i++ {
		if wire[i] != Recessive {
			t.Fatalf("EOF bit %d not recessive", i)
		}
	}
}

func TestDecodeWireRoundTrip(t *testing.T) {
	tests := []Frame{
		{ID: 0x000},
		{ID: 0x7FF, Data: []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		{ID: 0x173, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{ID: 0x064, Data: []byte{0xAA}},
		{ID: 0x25F, Data: []byte{0, 0, 0}},
	}
	for _, f := range tests {
		t.Run(f.String(), func(t *testing.T) {
			wire := WireBits(&f, Dominant)
			got, n, err := DecodeWire(wire)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(wire) {
				t.Errorf("consumed %d of %d wire bits", n, len(wire))
			}
			if !got.Equal(&f) {
				t.Errorf("decoded %s, want %s", got.String(), f.String())
			}
		})
	}
}

// TestDecodeWireRoundTripProperty: encode→decode is the identity for any
// valid frame.
func TestDecodeWireRoundTripProperty(t *testing.T) {
	f := func(idRaw uint16, dlcRaw uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frame := Frame{ID: ID(idRaw) & MaxID}
		dlc := int(dlcRaw) % (MaxDataLen + 1)
		if dlc > 0 {
			frame.Data = make([]byte, dlc)
			rng.Read(frame.Data)
		}
		wire := WireBits(&frame, Dominant)
		got, n, err := DecodeWire(wire)
		return err == nil && n == len(wire) && got.Equal(&frame)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWireTruncated(t *testing.T) {
	f := Frame{ID: 0x123, Data: []byte{1, 2}}
	wire := WireBits(&f, Dominant)
	for _, cut := range []int{1, 10, len(wire) / 2, len(wire) - 1} {
		if _, _, err := DecodeWire(wire[:cut]); err == nil {
			t.Errorf("truncation at %d bits went undetected", cut)
		}
	}
}

func TestDecodeWireCorruptedCRC(t *testing.T) {
	f := Frame{ID: 0x321, Data: []byte{9, 8, 7}}
	wire := WireBits(&f, Dominant)
	// Flip a data-region wire bit. This may produce a CRC mismatch or a
	// stuff violation depending on the neighborhood; either way it must not
	// decode as a valid frame equal to the original.
	for pos := 20; pos < 40; pos++ {
		mutated := make([]Level, len(wire))
		copy(mutated, wire)
		mutated[pos] ^= 1
		got, _, err := DecodeWire(mutated)
		if err == nil && got.Equal(&f) {
			t.Errorf("flip at %d produced identical valid frame", pos)
		}
	}
}

func TestDecodeWireFormErrors(t *testing.T) {
	f := Frame{ID: 0x040, Data: []byte{1}}
	wire := WireBits(&f, Dominant)
	// Dominant CRC delimiter is a form error. Find it: it is the third bit
	// from the end minus EOF and ACK fields.
	crcDelim := len(wire) - EOFBits - 2 - 1
	mutated := make([]Level, len(wire))
	copy(mutated, wire)
	mutated[crcDelim] = Dominant
	_, _, err := DecodeWire(mutated)
	if err == nil {
		t.Fatal("dominant CRC delimiter must not decode cleanly")
	}
}

func TestDecodeWireStuffViolation(t *testing.T) {
	// Construct six consecutive dominant bits right after SOF.
	bits := make([]Level, 30)
	for i := range bits {
		bits[i] = Dominant
	}
	_, _, err := DecodeWire(bits)
	if !errors.Is(err, ErrStuffViolation) {
		t.Fatalf("want stuff violation, got %v", err)
	}
}

func TestWireLenAverageFrame(t *testing.T) {
	// The paper works with an average CAN frame of ~125 bits including stuff
	// bits for an 8-byte payload (s_f = 125). Sanity-check that our encoder
	// lands in that neighborhood for typical payloads.
	rng := rand.New(rand.NewSource(3))
	total := 0
	const n = 1000
	for i := 0; i < n; i++ {
		f := Frame{ID: ID(rng.Intn(int(MaxID) + 1)), Data: make([]byte, 8)}
		rng.Read(f.Data)
		total += WireLen(&f)
	}
	avg := float64(total) / n
	if avg < 108 || avg > 125 {
		t.Errorf("average 8-byte wire length = %.1f bits, expected within [108,125]", avg)
	}
}

// TestDecodeWireAllocations pins the decoders' cost: they destuff into
// arrays on their own stack, so a data frame allocates exactly its Data, a
// frame without payload bytes (remote, DLC 0) allocates nothing, and so does
// sniffing the FD format bit.
func TestDecodeWireAllocations(t *testing.T) {
	eight := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0xFF, 0x55, 0xAA}
	for _, tc := range []struct {
		name string
		f    Frame
		want float64
	}{
		{"base", Frame{ID: 0x173, Data: eight}, 1},
		{"extended", Frame{ID: 0x1ABCDE0, Extended: true, Data: eight}, 1},
		{"remote", Frame{ID: 0x173, Remote: true, RequestLen: 8}, 0},
		{"dlc0", Frame{ID: 0x173}, 0},
		{"fd", Frame{ID: 0x173, FD: true, Data: make([]byte, MaxFDDataLen)}, 1},
	} {
		wire := WireBits(&tc.f, Dominant)
		got, n, err := DecodeWire(wire)
		if err != nil || n != len(wire) || !got.Equal(&tc.f) {
			t.Fatalf("%s: decoded %v, %d bits, %v; want %v, %d bits", tc.name, got, n, err, tc.f, len(wire))
		}
		if allocs := testing.AllocsPerRun(100, func() { DecodeWire(wire) }); allocs != tc.want {
			t.Errorf("%s: DecodeWire makes %v allocations, want %v", tc.name, allocs, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { sniffFD(wire) }); allocs != 0 {
			t.Errorf("%s: sniffFD makes %v allocations, want 0", tc.name, allocs)
		}
	}
}
