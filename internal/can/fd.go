package can

import "fmt"

// CAN FD support (ISO 11898-1:2015), restricted to a constant bit rate
// (BRS = 0): the frame format, the non-linear DLC table, the stuff-count
// field, and the CRC-17/CRC-21 sequences protected by fixed stuff bits. The
// constant-rate restriction keeps the bit-quantum bus model exact; bit-rate
// switching only changes wall-clock scaling, not protocol logic.
//
// FD frames matter to MichiCAN as future work: the arbitration phase — the
// only part the defense samples — is bit-identical to classical CAN, so the
// detection FSM and the counterattack carry over unchanged.

// MaxFDDataLen is the largest CAN FD payload.
const MaxFDDataLen = 64

// fdLengths is the non-linear DLC → byte-count table for DLC 9..15.
var fdLengths = [7]int{12, 16, 20, 24, 32, 48, 64}

// FDLenFromDLC maps a DLC code (0-15) to the FD payload length in bytes.
func FDLenFromDLC(dlc int) int {
	if dlc <= 8 {
		if dlc < 0 {
			return 0
		}
		return dlc
	}
	if dlc > 15 {
		dlc = 15
	}
	return fdLengths[dlc-9]
}

// FDDLCFromLen maps a payload length to its DLC code; ok is false when the
// length is not encodable (FD payloads must hit a table entry).
func FDDLCFromLen(n int) (dlc int, ok bool) {
	if n >= 0 && n <= 8 {
		return n, true
	}
	for i, l := range fdLengths {
		if l == n {
			return 9 + i, true
		}
	}
	return 0, false
}

// ValidFDLen reports whether n is an encodable FD payload length.
func ValidFDLen(n int) bool {
	_, ok := FDDLCFromLen(n)
	return ok
}

// FD field geometry, in unstuffed positions from SOF (base format):
// SOF | ID(11) | RRS | IDE | FDF | res | BRS | ESI | DLC(4) | data...
const (
	// PosRRS is the remote-request-substitution bit (always dominant; CAN
	// FD has no remote frames), occupying the classical RTR slot.
	PosRRS = 12
	// PosFDF is the FD-format bit: recessive marks an FD frame where a
	// classical base frame carries the dominant r0 — the format
	// discriminator at position 14.
	PosFDF = 14
	// PosRes, PosBRS, PosESI complete the FD control field.
	PosRes = 15
	PosBRS = 16
	PosESI = 17
	// PosDLCStartFD is the first DLC bit of a base FD frame.
	PosDLCStartFD = 18
	// PosDataStartFD is the first data bit of a base FD frame.
	PosDataStartFD = PosDLCStartFD + DLCBits // 22
)

// Extended FD geometry: SOF | ID11 | SRR | IDE | ID18 | RRS | FDF | res |
// BRS | ESI | DLC(4) | data...
const (
	// PosRRSExt is the RRS bit of an extended FD frame.
	PosRRSExt = PosExtIDStart + ExtLowBits // 32
	// PosFDFExt discriminates extended FD (recessive) from classical
	// extended (dominant r1) at position 33.
	PosFDFExt = PosRRSExt + 1 // 33
	// PosDLCStartFDExt / PosDataStartFDExt locate the extended FD DLC/data.
	PosDLCStartFDExt  = PosFDFExt + 4 // res,BRS,ESI then DLC => 37
	PosDataStartFDExt = PosDLCStartFDExt + DLCBits
)

// CRC-17 and CRC-21 generator polynomials (x^17/x^21 terms implicit) and
// register initializations (a single 1 in the MSB, per ISO 11898-1:2015).
const (
	CRC17Poly uint32 = 0x1685B
	CRC17Init uint32 = 1 << 16
	crc17Mask uint32 = 1<<17 - 1
	CRC21Poly uint32 = 0x102899
	CRC21Init uint32 = 1 << 20
	crc21Mask uint32 = 1<<21 - 1
)

// FDCRC is the running FD checksum register.
type FDCRC struct {
	reg, poly, mask uint32
	bits            int
}

// NewFDCRC creates the FD CRC register for the given payload length:
// CRC-17 protects payloads up to 16 bytes, CRC-21 longer ones.
func NewFDCRC(dataLen int) *FDCRC {
	if dataLen <= 16 {
		return &FDCRC{reg: CRC17Init, poly: CRC17Poly, mask: crc17Mask, bits: 17}
	}
	return &FDCRC{reg: CRC21Init, poly: CRC21Poly, mask: crc21Mask, bits: 21}
}

// Update feeds one bit into the register.
func (c *FDCRC) Update(bit Level) {
	nxt := uint32(bit) ^ (c.reg >> (c.bits - 1) & 1)
	c.reg = (c.reg << 1) & c.mask
	if nxt != 0 {
		c.reg ^= c.poly
	}
}

// Reset re-seeds the register for a fresh frame, preserving its width so a
// receiver can reuse the same two registers across frames instead of
// allocating a pair per reception.
func (c *FDCRC) Reset() {
	if c.bits == 17 {
		c.reg = CRC17Init
	} else {
		c.reg = CRC21Init
	}
}

// Sum returns the checksum; Bits its width.
func (c *FDCRC) Sum() uint32 { return c.reg & c.mask }

// Bits returns the CRC width (17 or 21).
func (c *FDCRC) Bits() int { return c.bits }

// grayCode3 Gray-codes a 3-bit value.
func grayCode3(v int) int { return (v ^ (v >> 1)) & 7 }

// grayDecode3 inverts grayCode3.
func grayDecode3(g int) int {
	v := 0
	for mask := 4; mask > 0; mask >>= 1 {
		if (g^v>>1)&mask != 0 {
			v |= mask
		}
	}
	return v & 7
}

// StuffCountBits encodes the dynamic-stuff-bit count (mod 8) as the 4-bit
// stuff-count field: 3 Gray-coded bits plus an even-parity bit.
func StuffCountBits(count int) [4]Level {
	g := grayCode3(count & 7)
	var out [4]Level
	ones := 0
	for i := 0; i < 3; i++ {
		bit := g >> (2 - i) & 1
		out[i] = Level(bit)
		ones += bit
	}
	out[3] = Level(ones & 1) // even parity over the Gray bits
	return out
}

// DecodeStuffCount parses a stuff-count field, verifying parity.
func DecodeStuffCount(bits [4]Level) (count int, ok bool) {
	g, ones := 0, 0
	for i := 0; i < 3; i++ {
		g = g<<1 | int(bits[i])
		ones += int(bits[i])
	}
	if Level(ones&1) != bits[3] {
		return 0, false
	}
	return grayDecode3(g), true
}

// FDWireBits serializes a CAN FD frame to its wire form: the dynamically
// stuffed region (SOF through the last data bit), the fixed-stuff-protected
// stuff-count and CRC fields, and the classical trailer. ack selects the
// observed ACK slot level. The CRC covers the dynamically stuffed stream
// plus the stuff-count payload bits, per ISO's post-Bosch fix for the
// classical stuffing vulnerability.
func FDWireBits(f *Frame, ack Level) []Level {
	wire, _, _, ackIdx := FDWirePlan(f)
	out := make([]Level, len(wire))
	copy(out, wire)
	out[ackIdx] = ack
	return out
}

// fdUnstuffedPrefix builds the unstuffed SOF-through-data region of an FD
// frame.
func fdUnstuffedPrefix(f *Frame) []Level {
	out := make([]Level, 0, PosDataStartFDExt+8*len(f.Data))
	out = append(out, Dominant) // SOF
	if f.Extended {
		for i := 0; i < ExtIDBits; i++ {
			out = append(out, f.ID.ExtBit(i))
			if i == IDBits-1 {
				out = append(out, Recessive, Recessive) // SRR, IDE
			}
		}
	} else {
		for i := 0; i < IDBits; i++ {
			out = append(out, f.ID.Bit(i))
		}
	}
	esi := Dominant // error-active transmitter
	if f.ESIPassive {
		esi = Recessive
	}
	// RRS, (IDE for base), FDF, res, BRS(=0), ESI
	if f.Extended {
		out = append(out, Dominant, Recessive, Dominant, Dominant, esi)
	} else {
		out = append(out, Dominant, Dominant, Recessive, Dominant, Dominant, esi)
	}
	dlc, _ := FDDLCFromLen(len(f.Data))
	for i := DLCBits - 1; i >= 0; i-- {
		out = append(out, bitOf(uint(dlc), i))
	}
	for _, b := range f.Data {
		for i := 7; i >= 0; i-- {
			out = append(out, bitOf(uint(b), i))
		}
	}
	return out
}

// validateFD checks FD-specific constraints.
func (f *Frame) validateFD() error {
	if f.Remote {
		return fmt.Errorf("%w: CAN FD has no remote frames", ErrFormViolation)
	}
	if !ValidFDLen(len(f.Data)) {
		return fmt.Errorf("%w: FD payload %d not in the DLC table", ErrDataLen, len(f.Data))
	}
	return nil
}

// maxFDUnstuffed is the unstuffed length, SOF through the last data bit, of
// the longest FD frame (extended format, 64 data bytes): the size of
// DecodeFDWire's destuffing buffer.
const maxFDUnstuffed = PosDataStartFDExt + 8*MaxFDDataLen

// DecodeFDWire parses one complete CAN FD frame from a wire sequence
// starting at the SOF bit, returning the frame and the wire bits consumed.
// Like DecodeWire it destuffs into a fixed array on its own stack, so the
// only allocation is the frame's Data.
func DecodeFDWire(bits []Level) (Frame, int, error) {
	var (
		d        Destuffer
		buf      [maxFDUnstuffed]Level // the destuffed payload bits
		n        int                   // payload bits destuffed into buf
		consumed int
		dynStuff int
		crc17    = FDCRC{reg: CRC17Init, poly: CRC17Poly, mask: crc17Mask, bits: 17}
		crc21    = FDCRC{reg: CRC21Init, poly: CRC21Poly, mask: crc21Mask, bits: 21}
	)
	d.Reset()

	extended := false
	dataLen := -1
	dlcStart, dataStart := PosDLCStartFD, PosDataStartFD
	// Dynamic region: SOF through the last data bit.
	for {
		if dataLen >= 0 && n == dataStart+8*dataLen {
			break
		}
		if consumed >= len(bits) {
			return Frame{}, consumed, ErrFrameTooShort
		}
		b := bits[consumed]
		consumed++
		crc17.Update(b)
		crc21.Update(b)
		isPayload, err := d.Next(b)
		if err != nil {
			return Frame{}, consumed, err
		}
		if !isPayload {
			dynStuff++
			continue
		}
		buf[n] = b
		n++
		if n == PosIDE+1 && b == Recessive {
			extended = true
			dlcStart, dataStart = PosDLCStartFDExt, PosDataStartFDExt
		}
		if n == dlcStart+DLCBits {
			dataLen = FDLenFromDLC(DecodeField(buf[:n], dlcStart, DLCBits))
		}
	}
	payload := buf[:n]

	// A pending dynamic stuff bit can follow the final data bit; consume it
	// before the fixed-stuff region (the encoder emits it and counts it).
	if d.Expecting() {
		if consumed >= len(bits) {
			return Frame{}, consumed, ErrFrameTooShort
		}
		b := bits[consumed]
		consumed++
		crc17.Update(b)
		crc21.Update(b)
		if _, err := d.Next(b); err != nil {
			return Frame{}, consumed, err
		}
		dynStuff++
	}

	// Form checks over the control field.
	if payload[PosSOF] != Dominant {
		return Frame{}, consumed, ErrFormViolation
	}
	fdfPos, resPos, brsPos, esiPos, rrsPos := PosFDF, PosRes, PosBRS, PosESI, PosRRS
	if extended {
		fdfPos, rrsPos = PosFDFExt, PosRRSExt
		resPos, brsPos, esiPos = PosFDFExt+1, PosFDFExt+2, PosFDFExt+3
	}
	if payload[fdfPos] != Recessive {
		return Frame{}, consumed, fmt.Errorf("%w: not an FD frame", ErrFormViolation)
	}
	if payload[rrsPos] != Dominant || payload[resPos] != Dominant {
		return Frame{}, consumed, ErrFormViolation
	}
	if payload[brsPos] != Dominant {
		return Frame{}, consumed, fmt.Errorf("%w: bit-rate switching unsupported", ErrFormViolation)
	}

	// Fixed-stuff region: stuff count (4 payload bits) + CRC.
	crc := &crc17
	if dataLen > 16 {
		crc = &crc21
	}
	fieldLen := 4 + crc.Bits()
	var scBits [4]Level
	var gotCRC uint32
	for i := 0; i < fieldLen; i++ {
		if i%4 == 0 {
			if consumed >= len(bits) {
				return Frame{}, consumed, ErrFrameTooShort
			}
			fsb := bits[consumed]
			if fsb != opposite(bits[consumed-1]) {
				return Frame{}, consumed, fmt.Errorf("%w: fixed stuff bit", ErrStuffViolation)
			}
			consumed++
		}
		if consumed >= len(bits) {
			return Frame{}, consumed, ErrFrameTooShort
		}
		b := bits[consumed]
		consumed++
		if i < 4 {
			scBits[i] = b
			crc17.Update(b)
			crc21.Update(b)
		} else {
			gotCRC = gotCRC<<1 | uint32(b)
		}
	}
	count, ok := DecodeStuffCount(scBits)
	if !ok {
		return Frame{}, consumed, fmt.Errorf("%w: stuff count parity", ErrFormViolation)
	}
	if count != dynStuff&7 {
		return Frame{}, consumed, fmt.Errorf("%w: stuff count %d, counted %d", ErrStuffViolation, count, dynStuff&7)
	}
	if gotCRC != crc.Sum() {
		return Frame{}, consumed, ErrCRCMismatch
	}

	// Classical trailer.
	trailer := 3 + EOFBits
	if consumed+trailer > len(bits) {
		return Frame{}, consumed, ErrFrameTooShort
	}
	if bits[consumed] != Recessive || bits[consumed+2] != Recessive {
		return Frame{}, consumed, ErrFormViolation
	}
	for i := 3; i < trailer; i++ {
		if bits[consumed+i] != Recessive {
			return Frame{}, consumed, ErrFormViolation
		}
	}
	consumed += trailer

	f := Frame{FD: true, Extended: extended, ESIPassive: payload[esiPos] == Recessive}
	f.ID = Layout{Extended: extended}.DecodeID(payload)
	if dataLen > 0 {
		f.Data = make([]byte, dataLen)
		for i := 0; i < dataLen; i++ {
			f.Data[i] = byte(DecodeField(payload, dataStart+8*i, 8))
		}
	}
	return f, consumed, nil
}

// sniffFD peeks at the format discriminators (FDF at payload position 14 for
// base frames, 33 for extended ones) without committing to a full decode. It
// counts payload bits and keeps only the IDE level, so it allocates nothing.
func sniffFD(bits []Level) bool {
	var d Destuffer
	d.Reset()
	n, ext := 0, false // payload bits seen; IDE recessive
	for i := 0; i < len(bits) && n <= PosFDFExt; i++ {
		isPayload, err := d.Next(bits[i])
		if err != nil {
			return false
		}
		if !isPayload {
			continue
		}
		n++
		switch {
		case n == PosIDE+1:
			ext = bits[i] == Recessive
		case !ext && n == PosFDF+1:
			return bits[i] == Recessive
		case ext && n == PosFDFExt+1:
			return bits[i] == Recessive
		}
	}
	return false
}

// FDWirePlan serializes an FD frame for transmission: the wire bits, the
// stuff-bit mask (dynamic and fixed stuff bits), the end of the arbitration
// field on the wire, and the ACK slot index.
func FDWirePlan(f *Frame) (wire []Level, isStuff []bool, arbEnd, ackIdx int) {
	unstuffed := fdUnstuffedPrefix(f)
	arbEndPos := PosRRS
	if f.Extended {
		arbEndPos = PosRRSExt
	}
	crc := NewFDCRC(len(f.Data))
	var s Stuffer
	s.Reset()
	dynStuff := 0
	for pos, b := range unstuffed {
		out := s.Next(b)
		for j, w := range out {
			wire = append(wire, w)
			isStuff = append(isStuff, j == 1)
			crc.Update(w)
		}
		if len(out) == 2 {
			dynStuff++
		}
		if pos <= arbEndPos {
			arbEnd = len(wire)
		}
	}
	sc := StuffCountBits(dynStuff)
	fieldPayload := make([]Level, 0, 4+crc.Bits())
	for _, b := range sc {
		crc.Update(b)
		fieldPayload = append(fieldPayload, b)
	}
	sum := crc.Sum()
	for i := crc.Bits() - 1; i >= 0; i-- {
		fieldPayload = append(fieldPayload, Level(sum>>i&1))
	}
	for i, b := range fieldPayload {
		if i%4 == 0 {
			wire = append(wire, opposite(wire[len(wire)-1]))
			isStuff = append(isStuff, true)
		}
		wire = append(wire, b)
		isStuff = append(isStuff, false)
	}
	wire = append(wire, Recessive) // CRC delimiter
	isStuff = append(isStuff, false)
	ackIdx = len(wire)
	wire = append(wire, Recessive, Recessive) // ACK slot, ACK delimiter
	isStuff = append(isStuff, false, false)
	for i := 0; i < EOFBits; i++ {
		wire = append(wire, Recessive)
		isStuff = append(isStuff, false)
	}
	return wire, isStuff, arbEnd, ackIdx
}
