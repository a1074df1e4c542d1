// Package fsm implements MichiCAN's detection machinery (Sec. IV-A): the
// per-ECU detection range 𝔻 of malicious CAN identifiers and the binary-tree
// finite state machine that classifies an incoming 11-bit CAN ID bit by bit,
// deciding as early as possible whether the ID is malicious.
//
// The FSM is generated offline (by the OEM, per the paper's initial
// configuration phase — cmd/fsmgen plays that role here) and evaluated online
// by the defense's interrupt handler, one ID bit per nominal bit time.
package fsm

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"michican/internal/can"
)

// Decision is the FSM's verdict about the CAN ID observed so far.
type Decision uint8

const (
	// Undecided means more ID bits are needed.
	Undecided Decision = iota
	// Malicious means the ID prefix can only complete to an ID in 𝔻; the
	// defense raises the counterattack flag and stops the FSM.
	Malicious
	// Benign means the ID prefix can only complete to IDs outside 𝔻.
	Benign
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Undecided:
		return "undecided"
	case Malicious:
		return "malicious"
	case Benign:
		return "benign"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// IVN is the ordered list 𝔼 of legitimate CAN IDs on the in-vehicle network,
// one per ECU (the paper assumes each unique CAN ID is tied to exactly one
// ECU). Construct with NewIVN to enforce ordering and uniqueness.
type IVN struct {
	ids []can.ID
}

// Errors returned by IVN construction.
var (
	// ErrEmptyIVN indicates that no ECU IDs were supplied.
	ErrEmptyIVN = errors.New("fsm: IVN needs at least one ECU")
	// ErrDuplicateID indicates a CAN ID claimed by two ECUs.
	ErrDuplicateID = errors.New("fsm: duplicate CAN ID in IVN")
)

// NewIVN builds the ordered ECU list 𝔼 from the set of legitimate CAN IDs.
// IDs may be passed in any order; duplicates and out-of-range IDs are
// rejected.
func NewIVN(ids []can.ID) (*IVN, error) {
	if len(ids) == 0 {
		return nil, ErrEmptyIVN
	}
	sorted := make([]can.ID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, id := range sorted {
		if !id.Valid() {
			return nil, fmt.Errorf("%w: %#x", can.ErrIDRange, uint32(id))
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("%w: %s", ErrDuplicateID, id)
		}
	}
	return &IVN{ids: sorted}, nil
}

// Size returns the number of ECUs N = |𝔼|.
func (v *IVN) Size() int { return len(v.ids) }

// IDs returns a copy of the ordered ID list (ascending = priority order).
func (v *IVN) IDs() []can.ID {
	out := make([]can.ID, len(v.ids))
	copy(out, v.ids)
	return out
}

// Index returns the position of id within 𝔼, or -1 if the ID is not a
// legitimate ECU ID.
func (v *IVN) Index(id can.ID) int {
	i := sort.Search(len(v.ids), func(k int) bool { return v.ids[k] >= id })
	if i < len(v.ids) && v.ids[i] == id {
		return i
	}
	return -1
}

// Contains reports whether id belongs to a legitimate ECU.
func (v *IVN) Contains(id can.ID) bool { return v.Index(id) >= 0 }

// DetectionSet is the set 𝔻 of CAN IDs a particular ECU must flag as
// malicious, represented as a bitmap over the 2048 possible identifiers:
// bit id%64 of word id/64 is set when id ∈ 𝔻.
type DetectionSet struct {
	bits [(can.MaxID + 1) / 64]uint64
	n    int
}

// has reports whether id ∈ 𝔻; id must be a valid 11-bit identifier.
func (d *DetectionSet) has(id can.ID) bool { return d.bits[id/64]>>(id%64)&1 != 0 }

// set adds a valid 11-bit identifier to the bitmap without updating n.
func (d *DetectionSet) set(id can.ID) { d.bits[id/64] |= 1 << (id % 64) }

// count returns |𝔻 ∩ [lo, lo+size)| for a power-of-two size with lo a
// multiple of size — the shape of every block the FSM tree splits off — so
// the block is either whole words or a masked part of one word.
func (d *DetectionSet) count(lo can.ID, size int) int {
	if size < 64 {
		return bits.OnesCount64(d.bits[lo/64] >> (lo % 64) & (1<<size - 1))
	}
	n := 0
	for _, w := range d.bits[lo/64 : (int(lo)+size)/64] {
		n += bits.OnesCount64(w)
	}
	return n
}

// NewDetectionSet builds 𝔻 per Definition IV.4 for the ECU at position i of
// 𝔼 (the "full scenario"): every ID j with 0 ≤ j ≤ 𝔼_i that is not a
// legitimate ID of a higher-priority ECU. The ECU's own ID is included —
// observing it from another node is a spoofing attack (Def. IV.1); lower
// unknown IDs are DoS attacks (Def. IV.2).
func NewDetectionSet(v *IVN, i int) (*DetectionSet, error) {
	d := new(DetectionSet)
	if err := d.Fill(v, i); err != nil {
		return nil, err
	}
	return d, nil
}

// Fill overwrites d with the full-scenario set NewDetectionSet builds for
// the ECU at position i of 𝔼, in place; on error d is unchanged.
func (d *DetectionSet) Fill(v *IVN, i int) error {
	if i < 0 || i >= v.Size() {
		return fmt.Errorf("fsm: ECU index %d out of range [0,%d)", i, v.Size())
	}
	end := int(v.ids[i]) + 1 // 𝔻 ⊆ [0, end)
	d.bits = [len(d.bits)]uint64{}
	for w := 0; w < end/64; w++ {
		d.bits[w] = ^uint64(0)
	}
	if r := end % 64; r != 0 {
		d.bits[end/64] = 1<<r - 1
	}
	// 𝔼 is ascending, so v.ids[:i] are exactly the legitimate IDs below own.
	for _, id := range v.ids[:i] {
		d.bits[id/64] &^= 1 << (id % 64)
	}
	d.n = end - i
	return nil
}

// NewSpoofOnlySet builds the "light scenario" detection set: only the ECU's
// own ID is flagged (spoofing detection without DoS coverage), used for the
// lower-priority half 𝔼₁ when the IVN is split (Sec. IV-A).
func NewSpoofOnlySet(v *IVN, i int) (*DetectionSet, error) {
	if i < 0 || i >= v.Size() {
		return nil, fmt.Errorf("fsm: ECU index %d out of range [0,%d)", i, v.Size())
	}
	var d DetectionSet
	d.set(v.ids[i])
	d.n = 1
	return &d, nil
}

// NewCustomSet builds a detection set from an explicit list of malicious
// IDs. It is the hook for deployments that flag additional ranges (e.g. the
// ParkSense protection covering IDs below a feature's lowest ID).
func NewCustomSet(ids []can.ID) (*DetectionSet, error) {
	var d DetectionSet
	for _, id := range ids {
		if !id.Valid() {
			return nil, fmt.Errorf("%w: %#x", can.ErrIDRange, uint32(id))
		}
		if !d.has(id) {
			d.set(id)
			d.n++
		}
	}
	return &d, nil
}

// Contains reports whether id ∈ 𝔻.
func (d *DetectionSet) Contains(id can.ID) bool {
	return id.Valid() && d.has(id)
}

// Size returns |𝔻|.
func (d *DetectionSet) Size() int { return d.n }

// IDs returns the malicious IDs in ascending order.
func (d *DetectionSet) IDs() []can.ID { return d.appendIDs(make([]can.ID, 0, d.n)) }

// appendIDs appends the malicious IDs to out in ascending order.
func (d *DetectionSet) appendIDs(out []can.ID) []can.ID {
	for w, word := range d.bits {
		for ; word != 0; word &= word - 1 {
			out = append(out, can.ID(w*64+bits.TrailingZeros64(word)))
		}
	}
	return out
}
