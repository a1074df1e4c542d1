package can

import "fmt"

// Field geometry of a CAN 2.0A data frame, in unstuffed (payload) bit
// positions counted from the SOF bit at position 0.
const (
	// PosSOF is the start-of-frame bit position.
	PosSOF = 0
	// PosIDStart is the first (most significant) identifier bit.
	PosIDStart = 1
	// PosRTR is the remote-transmission-request bit (dominant: data frame).
	PosRTR = PosIDStart + IDBits // 12
	// PosIDE is the identifier-extension bit (dominant: base format).
	PosIDE = PosRTR + 1 // 13
	// PosR0 is the reserved bit r0 (dominant).
	PosR0 = PosIDE + 1 // 14
	// PosDLCStart is the first (most significant) DLC bit.
	PosDLCStart = PosR0 + 1 // 15
	// DLCBits is the width of the data length code.
	DLCBits = 4
	// PosDataStart is the first data bit.
	PosDataStart = PosDLCStart + DLCBits // 19
)

// Extended (CAN 2.0B) field geometry, in unstuffed bit positions from SOF.
// The first 12 positions coincide with the base layout; position 13 (IDE)
// discriminates the formats: dominant = base, recessive = extended.
const (
	// PosSRR is the substitute remote request bit (recessive) of an
	// extended frame, occupying the base layout's RTR slot.
	PosSRR = 12
	// PosExtIDStart is the first bit of the 18-bit identifier extension.
	PosExtIDStart = PosIDE + 1 // 14
	// PosRTRExt is the extended frame's RTR bit, closing its arbitration
	// field.
	PosRTRExt = PosExtIDStart + ExtLowBits // 32
	// PosR1Ext and PosR0Ext are the reserved bits of the extended control
	// field.
	PosR1Ext = PosRTRExt + 1 // 33
	PosR0Ext = PosR1Ext + 1  // 34
	// PosDLCStartExt is the first DLC bit of an extended frame.
	PosDLCStartExt = PosR0Ext + 1 // 35
	// PosDataStartExt is the first data bit of an extended frame.
	PosDataStartExt = PosDLCStartExt + DLCBits // 39
)

// Layout selects between the two CAN wire formats and answers the geometry
// questions decoders need.
type Layout struct {
	// Extended is true for the CAN 2.0B (29-bit identifier) format.
	Extended bool
}

// DLCStart returns the unstuffed position of the first DLC bit.
func (l Layout) DLCStart() int {
	if l.Extended {
		return PosDLCStartExt
	}
	return PosDLCStart
}

// DataStart returns the unstuffed position of the first data bit.
func (l Layout) DataStart() int {
	if l.Extended {
		return PosDataStartExt
	}
	return PosDataStart
}

// UnstuffedLen returns the unstuffed bit count from SOF through the last CRC
// bit for a payload of dataLen bytes.
func (l Layout) UnstuffedLen(dataLen int) int {
	return l.DataStart() + 8*dataLen + CRCBits
}

// ArbEndPos returns the unstuffed position of the last arbitration-field
// bit (RTR): a dominant level read by a transmitter sending recessive at or
// before this position is arbitration, not an error.
func (l Layout) ArbEndPos() int {
	if l.Extended {
		return PosRTRExt
	}
	return PosRTR
}

// DecodeID extracts the identifier from an unstuffed payload prefix.
func (l Layout) DecodeID(payload []Level) ID {
	if !l.Extended {
		return ID(DecodeField(payload, PosIDStart, IDBits))
	}
	base := ID(DecodeField(payload, PosIDStart, IDBits))
	low := ID(DecodeField(payload, PosExtIDStart, ExtLowBits))
	return base<<ExtLowBits | low
}

// Trailer geometry (fixed-form, never stuffed).
const (
	// EOFBits is the number of recessive end-of-frame bits.
	EOFBits = 7
	// IntermissionBits is the recessive inter-frame space that must follow
	// every frame before the bus is idle again (ISO 11898-1 intermission).
	IntermissionBits = 3
	// IFSBits is the intermission (inter-frame space) after EOF.
	IFSBits = 3
	// IdleForSOF is the minimum number of consecutive recessive bits after
	// which a new SOF may be asserted (EOF tail + intermission; the paper
	// works with "at least 11 recessive bits").
	IdleForSOF = 11
)

// UnstuffedLen returns the number of unstuffed bits from SOF through the last
// CRC bit for a base-format payload of dataLen bytes.
func UnstuffedLen(dataLen int) int {
	return PosDataStart + 8*dataLen + CRCBits
}

// NominalFrameLen returns the total unstuffed frame length from SOF through
// the last EOF bit (excluding intermission) for a payload of dataLen bytes:
// 44 + 8*dataLen bits (base format); 64 + 8*dataLen for extended frames.
func NominalFrameLen(dataLen int) int {
	return UnstuffedLen(dataLen) + 3 + EOFBits // CRC delim + ACK slot + ACK delim + EOF
}

// NominalFrameLenExt is NominalFrameLen for the extended format.
func NominalFrameLenExt(dataLen int) int {
	return Layout{Extended: true}.UnstuffedLen(dataLen) + 3 + EOFBits
}

// UnstuffedBody serializes the stuffed region of the frame — SOF through the
// last CRC bit — as unstuffed levels in transmission order. The CRC is
// computed over SOF through the last data bit per ISO 11898-1. Both base and
// extended formats are supported.
func UnstuffedBody(f *Frame) []Level {
	layout := Layout{Extended: f.Extended}
	body := make([]Level, 0, layout.UnstuffedLen(len(f.Data)))
	body = append(body, Dominant) // SOF
	rtr := Dominant
	if f.Remote {
		rtr = Recessive
	}
	if f.Extended {
		for i := 0; i < ExtIDBits; i++ {
			body = append(body, f.ID.ExtBit(i))
			if i == IDBits-1 {
				body = append(body, Recessive, Recessive) // SRR, IDE
			}
		}
		body = append(body, rtr, Dominant, Dominant) // RTR, r1, r0
	} else {
		for i := 0; i < IDBits; i++ {
			body = append(body, f.ID.Bit(i))
		}
		body = append(body, rtr, Dominant, Dominant) // RTR, IDE, r0
	}
	dlc := len(f.Data)
	if f.Remote {
		dlc = f.RequestLen
	}
	for i := DLCBits - 1; i >= 0; i-- {
		body = append(body, bitOf(uint(dlc), i))
	}
	for _, b := range f.Data {
		for i := 7; i >= 0; i-- {
			body = append(body, bitOf(uint(b), i))
		}
	}
	crc := ChecksumBits(body)
	for i := CRCBits - 1; i >= 0; i-- {
		body = append(body, bitOf(uint(crc), i))
	}
	return body
}

// WireBits serializes the full frame as it appears on an error-free bus:
// the stuffed body followed by the fixed-form trailer. ack selects the level
// observed in the ACK slot (Dominant when at least one receiver acknowledges,
// which is the normal case on a multi-node bus).
func WireBits(f *Frame, ack Level) []Level {
	if f.FD {
		return FDWireBits(f, ack)
	}
	body := StuffBits(UnstuffedBody(f))
	out := make([]Level, 0, len(body)+3+EOFBits)
	out = append(out, body...)
	out = append(out, Recessive) // CRC delimiter
	out = append(out, ack)       // ACK slot
	out = append(out, Recessive) // ACK delimiter
	for i := 0; i < EOFBits; i++ {
		out = append(out, Recessive)
	}
	return out
}

// WireLen returns the on-wire length (including stuff bits, excluding
// intermission) of the frame assuming error-free transmission.
func WireLen(f *Frame) int { return len(WireBits(f, Dominant)) }

// maxUnstuffed is the unstuffed length, SOF through the last CRC bit, of the
// longest classical frame (extended format, 8 data bytes): the size of
// DecodeWire's destuffing buffer, and its length bound until the DLC is read.
const maxUnstuffed = PosDataStartExt + 8*MaxDataLen + CRCBits

// DecodeWire parses one complete frame (base or extended format) from the
// beginning of a wire-level bit sequence that starts at the SOF bit. It
// returns the decoded frame and the number of wire bits consumed (through
// the last EOF bit). The ACK slot is accepted at either level. It destuffs
// into a fixed array on its own stack, so the only allocation is a data
// frame's Data.
func DecodeWire(bits []Level) (Frame, int, error) {
	if sniffFD(bits) {
		return DecodeFDWire(bits)
	}
	var (
		d        Destuffer
		crc      CRC15
		buf      [maxUnstuffed]Level // the destuffed payload bits
		n        int                 // payload bits destuffed into buf
		consumed int
		layout   Layout
		remote   bool
	)
	d.Reset()
	// Stuffed region: the format is unknown until the IDE bit (payload
	// position 13) and the length until the DLC field, so destuff against
	// an upper bound, tightened once the DLC is read. Until then the CRC
	// takes every bit, which is safe because every pre-DLC bit is
	// CRC-protected anyway; after it, only SOF through the last data bit.
	need, dataEnd := maxUnstuffed, maxUnstuffed
	for n < need {
		if consumed >= len(bits) {
			return Frame{}, consumed, ErrFrameTooShort
		}
		b := bits[consumed]
		consumed++
		isPayload, err := d.Next(b)
		if err != nil {
			return Frame{}, consumed, err
		}
		if !isPayload {
			continue
		}
		buf[n] = b
		n++
		switch n {
		case PosIDE + 1:
			layout = Layout{Extended: b == Recessive}
		case layout.DLCStart() + DLCBits:
			// A recessive RTR marks a remote frame, which carries no data
			// field regardless of the DLC value.
			remote = buf[layout.ArbEndPos()] == Recessive
			dataLen := 0
			if !remote {
				dataLen = min(decodeField(buf[:n], layout.DLCStart(), DLCBits), MaxDataLen)
			}
			need = layout.UnstuffedLen(dataLen)
			dataEnd = need - CRCBits
		}
		if n <= dataEnd {
			crc.Update(b)
		}
	}
	payload := buf[:n]
	// A stuff bit may follow the final CRC bit (the stuffed region covers
	// SOF through the CRC sequence); consume it before the delimiter.
	if d.Expecting() {
		if consumed >= len(bits) {
			return Frame{}, consumed, ErrFrameTooShort
		}
		if _, err := d.Next(bits[consumed]); err != nil {
			return Frame{}, consumed, err
		}
		consumed++
	}
	if payload[PosSOF] != Dominant {
		return Frame{}, consumed, ErrFormViolation
	}
	if layout.Extended {
		// SRR and IDE recessive (checked by layout selection); r1/r0
		// dominant; RTR dominant for data frames, recessive for remote.
		if payload[PosR1Ext] != Dominant || payload[PosR0Ext] != Dominant {
			return Frame{}, consumed, ErrFormViolation
		}
	} else {
		if payload[PosIDE] != Dominant || payload[PosR0] != Dominant {
			return Frame{}, consumed, ErrFormViolation
		}
	}
	dlc := decodeField(payload, layout.DLCStart(), DLCBits)
	if dlc > MaxDataLen {
		if !remote {
			return Frame{}, consumed, fmt.Errorf("%w: DLC %d", ErrDataLen, dlc)
		}
		dlc = MaxDataLen // remote DLC 9..15 requests 8 bytes
	}
	payloadLen := dlc
	if remote {
		payloadLen = 0
	}
	// The CRC is over SOF..last data bit; recompute and compare with the
	// transmitted CRC field.
	gotCRC := uint16(decodeField(payload, layout.DataStart()+8*payloadLen, CRCBits))
	if crc.Sum() != gotCRC {
		return Frame{}, consumed, ErrCRCMismatch
	}
	// Fixed-form trailer: CRC delim, ACK slot, ACK delim, EOF.
	trailer := 3 + EOFBits
	if consumed+trailer > len(bits) {
		return Frame{}, consumed, ErrFrameTooShort
	}
	if bits[consumed] != Recessive { // CRC delimiter
		return Frame{}, consumed, ErrFormViolation
	}
	if bits[consumed+2] != Recessive { // ACK delimiter
		return Frame{}, consumed, ErrFormViolation
	}
	for i := 3; i < trailer; i++ {
		if bits[consumed+i] != Recessive {
			return Frame{}, consumed, ErrFormViolation
		}
	}
	consumed += trailer

	f := Frame{ID: layout.DecodeID(payload), Extended: layout.Extended}
	if remote {
		f.Remote = true
		f.RequestLen = dlc
	} else if dlc > 0 {
		f.Data = make([]byte, dlc)
		for i := 0; i < dlc; i++ {
			f.Data[i] = byte(decodeField(payload, layout.DataStart()+8*i, 8))
		}
	}
	return f, consumed, nil
}

// DecodeField reads a width-bit big-endian value starting at unstuffed bit
// position pos from a payload sequence (recessive = 1).
func DecodeField(payload []Level, pos, width int) int {
	return decodeField(payload, pos, width)
}

// decodeField reads width bits MSB-first starting at pos from an unstuffed
// payload sequence.
func decodeField(payload []Level, pos, width int) int {
	v := 0
	for i := 0; i < width; i++ {
		v <<= 1
		if payload[pos+i] == Recessive {
			v |= 1
		}
	}
	return v
}

func bitOf(v uint, i int) Level {
	if v&(1<<uint(i)) != 0 {
		return Recessive
	}
	return Dominant
}
