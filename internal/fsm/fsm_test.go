package fsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"michican/internal/can"
)

func mustIVN(t *testing.T, ids ...can.ID) *IVN {
	t.Helper()
	v, err := NewIVN(ids)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewIVNValidation(t *testing.T) {
	if _, err := NewIVN(nil); !errors.Is(err, ErrEmptyIVN) {
		t.Error("empty IVN accepted")
	}
	if _, err := NewIVN([]can.ID{0x10, 0x10}); !errors.Is(err, ErrDuplicateID) {
		t.Error("duplicate IDs accepted")
	}
	if _, err := NewIVN([]can.ID{0x800}); !errors.Is(err, can.ErrIDRange) {
		t.Error("out-of-range ID accepted")
	}
}

func TestIVNOrdering(t *testing.T) {
	v := mustIVN(t, 0x300, 0x005, 0x0F0)
	ids := v.IDs()
	want := []can.ID{0x005, 0x0F0, 0x300}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", ids, want)
		}
	}
	if v.Index(0x0F0) != 1 || v.Index(0x123) != -1 {
		t.Error("Index lookup wrong")
	}
	if !v.Contains(0x005) || v.Contains(0x006) {
		t.Error("Contains lookup wrong")
	}
}

// TestDetectionSetPaperExample reproduces the worked example from Sec. IV-A:
// 𝔼 = {0x005, 0x00F}. The ECU with 0x00F must flag 0x000–0x004 and
// 0x006–0x00F (its own ID included) but not 0x005.
func TestDetectionSetPaperExample(t *testing.T) {
	v := mustIVN(t, 0x005, 0x00F)
	d, err := NewDetectionSet(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	for id := can.ID(0); id <= 0x004; id++ {
		if !d.Contains(id) {
			t.Errorf("%s should be flagged (DoS range)", id)
		}
	}
	if d.Contains(0x005) {
		t.Error("0x005 is the other legitimate ECU; must not be flagged")
	}
	for id := can.ID(0x006); id <= 0x00F; id++ {
		if !d.Contains(id) {
			t.Errorf("%s should be flagged", id)
		}
	}
	if d.Contains(0x010) {
		t.Error("IDs above own must not be flagged (miscellaneous attacks are benign)")
	}
	if d.Size() != 15 {
		t.Errorf("|D| = %d, want 15", d.Size())
	}
}

func TestDetectionSetLowestPriorityECU(t *testing.T) {
	// The highest-priority ECU (lowest ID) flags everything at or below its
	// own ID except nothing (no higher-priority legitimate IDs exist).
	v := mustIVN(t, 0x005, 0x00F)
	d, err := NewDetectionSet(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := can.ID(0); id <= 0x005; id++ {
		if !d.Contains(id) {
			t.Errorf("%s should be flagged by ECU_1", id)
		}
	}
	if d.Contains(0x006) {
		t.Error("ECU_1 cannot judge IDs above its own")
	}
}

func TestNewDetectionSetIndexRange(t *testing.T) {
	v := mustIVN(t, 0x10)
	if _, err := NewDetectionSet(v, 1); err == nil {
		t.Error("out-of-range ECU index accepted")
	}
	if _, err := NewSpoofOnlySet(v, -1); err == nil {
		t.Error("negative ECU index accepted")
	}
}

func TestSpoofOnlySet(t *testing.T) {
	v := mustIVN(t, 0x100, 0x200, 0x300)
	d, err := NewSpoofOnlySet(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1 || !d.Contains(0x200) {
		t.Fatalf("light scenario set must contain exactly the own ID; got %v", d.IDs())
	}
}

func TestNewCustomSet(t *testing.T) {
	d, err := NewCustomSet([]can.ID{5, 5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 2 {
		t.Errorf("duplicates must collapse: size %d", d.Size())
	}
	if _, err := NewCustomSet([]can.ID{0x900}); err == nil {
		t.Error("invalid ID accepted")
	}
}

func TestFSMClassifyMatchesSet(t *testing.T) {
	v := mustIVN(t, 0x005, 0x064, 0x173, 0x25F, 0x3E8)
	for i := 0; i < v.Size(); i++ {
		d, err := NewDetectionSet(v, i)
		if err != nil {
			t.Fatal(err)
		}
		f := Build(d)
		if _, err := f.Stats(d); err != nil {
			t.Errorf("ECU %d: %v", i, err)
		}
	}
}

func TestFSMStreamingMatchesClassify(t *testing.T) {
	v := mustIVN(t, 0x064, 0x173)
	d, err := NewDetectionSet(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := Build(d)
	for id := can.ID(0); id <= can.MaxID; id++ {
		want, wantBits := f.Classify(id)
		f.Reset()
		var got Decision
		gotBits := 0
		for i := 0; i < can.IDBits; i++ {
			got = f.Step(id.Bit(i))
			if got != Undecided && gotBits == 0 {
				gotBits = i + 1
			}
		}
		if got != want {
			t.Fatalf("ID %s: streaming %v, batch %v", id, got, want)
		}
		if want != Undecided && gotBits != wantBits {
			t.Fatalf("ID %s: streaming decided at %d, batch at %d", id, gotBits, wantBits)
		}
	}
}

func TestFSMStepAfterDecisionIsStable(t *testing.T) {
	d, err := NewCustomSet([]can.ID{0})
	if err != nil {
		t.Fatal(err)
	}
	f := Build(d)
	f.Reset()
	for i := 0; i < can.IDBits; i++ {
		f.Step(can.Dominant)
	}
	dec := f.Decided()
	for i := 0; i < 5; i++ {
		if got := f.Step(can.Recessive); got != dec {
			t.Fatal("decision changed after being reached")
		}
	}
}

func TestFSMEarlyDecisionDominantPrefix(t *testing.T) {
	// With 𝔻 = [0, 0x0FF] (all IDs with the top 3 bits dominant), the FSM
	// must decide malicious after exactly 3 bits for any ID inside.
	ids := make([]can.ID, 0x100)
	for i := range ids {
		ids[i] = can.ID(i)
	}
	d, err := NewCustomSet(ids)
	if err != nil {
		t.Fatal(err)
	}
	f := Build(d)
	dec, bits := f.Classify(0x012)
	if dec != Malicious || bits != 3 {
		t.Fatalf("Classify(0x012) = %v after %d bits, want malicious after 3", dec, bits)
	}
	dec, bits = f.Classify(0x100)
	if dec != Benign || bits != 3 {
		t.Fatalf("Classify(0x100) = %v after %d bits, want benign after 3", dec, bits)
	}
}

func TestFSMEmptySet(t *testing.T) {
	d, err := NewCustomSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := Build(d)
	if f.Size() != 1 {
		t.Errorf("empty set should build a single benign leaf, size %d", f.Size())
	}
	dec, bits := f.Classify(0x123)
	if dec != Benign || bits != 0 {
		t.Errorf("empty set: Classify = %v/%d", dec, bits)
	}
}

func TestFSMFullSet(t *testing.T) {
	ids := make([]can.ID, int(can.MaxID)+1)
	for i := range ids {
		ids[i] = can.ID(i)
	}
	d, err := NewCustomSet(ids)
	if err != nil {
		t.Fatal(err)
	}
	f := Build(d)
	if f.Size() != 1 {
		t.Errorf("full set should collapse to one malicious leaf, size %d", f.Size())
	}
}

// refMembers computes 𝔻 of Def. IV.4 naively from the IVN's ID list: j is
// malicious for ECU i iff j ≤ 𝔼_i and j is not another ECU's legitimate ID.
func refMembers(v *IVN, i int) *[can.MaxID + 1]bool {
	ids := v.IDs()
	own := ids[i]
	legit := make(map[can.ID]bool, len(ids))
	for _, id := range ids {
		if id != own {
			legit[id] = true
		}
	}
	var m [can.MaxID + 1]bool
	for j := can.ID(0); j <= own; j++ {
		m[j] = !legit[j]
	}
	return &m
}

// refBuild is the per-ID-scan tree construction: each node counts its
// identifier range one ID at a time.
func refBuild(m *[can.MaxID + 1]bool) *FSM {
	f := &FSM{}
	var build func(lo, hi can.ID) int32
	build = func(lo, hi can.ID) int32 {
		count := 0
		for id := lo; id <= hi; id++ {
			if m[id] {
				count++
			}
		}
		idx := int32(len(f.nodes))
		switch total := int(hi-lo) + 1; count {
		case total:
			f.nodes = append(f.nodes, treeNode{child: [2]int32{-1, -1}, decision: Malicious})
		case 0:
			f.nodes = append(f.nodes, treeNode{child: [2]int32{-1, -1}, decision: Benign})
		default:
			f.nodes = append(f.nodes, treeNode{child: [2]int32{-1, -1}})
			mid := lo + can.ID(total/2)
			left := build(lo, mid-1)
			right := build(mid, hi)
			f.nodes[idx].child = [2]int32{left, right}
		}
		return idx
	}
	build(0, can.MaxID)
	f.Reset()
	return f
}

// refStats classifies all 2048 IDs one by one with Classify and checks each
// against the membership array m.
func refStats(f *FSM, m *[can.MaxID + 1]bool) (DetectionStats, error) {
	var out DetectionStats
	sum := 0
	for id := can.ID(0); id <= can.MaxID; id++ {
		dec, bits := f.Classify(id)
		want := Benign
		if m[id] {
			want = Malicious
		}
		if dec != want {
			return DetectionStats{}, fmt.Errorf("fsm: ID %s classified %v, want %v", id, dec, want)
		}
		if dec == Malicious {
			out.Detected++
			sum += bits
			out.MaxBits = max(out.MaxBits, bits)
		}
	}
	if out.Detected > 0 {
		out.MeanBits = float64(sum) / float64(out.Detected)
	}
	return out, nil
}

// refDepth is the maximum Classify depth over all 2048 IDs.
func refDepth(f *FSM) int {
	deepest := 0
	for id := can.ID(0); id <= can.MaxID; id++ {
		_, d := f.Classify(id)
		deepest = max(deepest, d)
	}
	return deepest
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstRef requires Stats and Depth of f to equal the references
// computed from Classify and the membership array m.
func checkAgainstRef(t *testing.T, name string, f *FSM, d *DetectionSet, m *[can.MaxID + 1]bool) {
	t.Helper()
	got, gotErr := f.Stats(d)
	want, wantErr := refStats(f, m)
	if got != want || errText(gotErr) != errText(wantErr) {
		t.Errorf("%s: Stats = %+v, %v; reference %+v, %v", name, got, gotErr, want, wantErr)
	}
	if got, want := f.Depth(), refDepth(f); got != want {
		t.Errorf("%s: Depth = %d, reference %d", name, got, want)
	}
}

// checkSet requires d to hold exactly the IDs marked in m, and Build(d) to
// equal the reference construction and pass the reference verification.
func checkSet(t *testing.T, name string, d *DetectionSet, m *[can.MaxID + 1]bool) {
	t.Helper()
	var ids []can.ID
	for id := can.ID(0); id <= can.MaxID; id++ {
		if m[id] {
			ids = append(ids, id)
		}
		if d.Contains(id) != m[id] {
			t.Fatalf("%s: Contains(%s) = %v, reference %v", name, id, d.Contains(id), m[id])
		}
	}
	if d.Size() != len(ids) || !slices.Equal(d.IDs(), ids) {
		t.Fatalf("%s: Size %d IDs %v, reference %d %v", name, d.Size(), d.IDs(), len(ids), ids)
	}
	f := Build(d)
	if !bytes.Equal(f.Marshal(), refBuild(m).Marshal()) {
		t.Fatalf("%s: Build differs from the per-ID construction", name)
	}
	checkAgainstRef(t, name, f, d, m)
	if _, err := f.Stats(d); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

// leafOffsets returns the image offsets of the leaf kind bytes.
func leafOffsets(image []byte) []int {
	var out []int
	for off := 9; off < len(image); off++ {
		if image[off] == 0 {
			off += 8
		} else {
			out = append(out, off)
		}
	}
	return out
}

// randomImage hand-builds a structurally valid image of n states whose
// child pointers point anywhere, cycles included.
func randomImage(rng *rand.Rand, n int) []byte {
	image := binary.BigEndian.AppendUint32(append([]byte(fsmMagic), fsmVersion), uint32(n))
	for i := 0; i < n; i++ {
		kind := byte(rng.Intn(3))
		if i == 0 {
			kind = 0
		}
		image = append(image, kind)
		if kind == 0 {
			image = binary.BigEndian.AppendUint32(image, uint32(rng.Intn(n)))
			image = binary.BigEndian.AppendUint32(image, uint32(rng.Intn(n)))
		}
	}
	return image
}

// TestFSMEquivalenceProperty: for random IVNs of every size, the light and
// full scenario sets hold exactly the naive Def. IV.4 members, Build equals
// the per-ID construction, and Stats and Depth equal the per-ID Classify
// references — also against the wrong set and on a corrupted image.
func TestFSMEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%int(can.MaxID+1) + 1
		v, err := RandomIVN(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		i := rng.Intn(n)
		full, err := NewDetectionSet(v, i)
		if err != nil {
			t.Fatal(err)
		}
		m := refMembers(v, i)
		checkSet(t, fmt.Sprintf("N=%d full[%d]", n, i), full, m)

		light, err := NewSpoofOnlySet(v, i)
		if err != nil {
			t.Fatal(err)
		}
		var lm [can.MaxID + 1]bool
		lm[v.IDs()[i]] = true
		checkSet(t, fmt.Sprintf("N=%d light[%d]", n, i), light, &lm)

		// Judged against the light set, the full machine fails unless its
		// 𝔻 is the own ID alone.
		f := Build(full)
		checkAgainstRef(t, "wrong set", f, light, &lm)

		image := f.Marshal()
		leaves := leafOffsets(image)
		image[leaves[rng.Intn(len(leaves))]] ^= 3 // malicious <-> benign
		flipped, err := Unmarshal(image)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, "flipped leaf", flipped, full, m)
		if _, err := flipped.Stats(full); err == nil {
			t.Error("flipped leaf passed verification")
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		var m [can.MaxID + 1]bool
		ids := make([]can.ID, rng.Intn(300))
		for k := range ids {
			ids[k] = can.ID(rng.Intn(int(can.MaxID) + 1))
			m[ids[k]] = true
		}
		d, err := NewCustomSet(ids)
		if err != nil {
			t.Fatal(err)
		}
		checkSet(t, fmt.Sprintf("custom %d", trial), d, &m)
	}
	var none, all [can.MaxID + 1]bool
	allIDs := make([]can.ID, 0, len(all))
	for id := range all {
		all[id] = true
		allIDs = append(allIDs, can.ID(id))
	}
	empty, _ := NewCustomSet(nil)
	checkSet(t, "empty", empty, &none)
	fullSpace, _ := NewCustomSet(allIDs)
	checkSet(t, "full", fullSpace, &all)
}

// TestFSMCorruptedImages: on images whose edges share and cycle, Stats and
// Depth still cover every ID exactly as Classify does and terminate.
func TestFSMCorruptedImages(t *testing.T) {
	// One internal state looping to itself: every ID ends undecided at
	// depth 11.
	self := binary.BigEndian.AppendUint32(append([]byte(fsmMagic), fsmVersion), 1)
	self = append(self, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	f, err := Unmarshal(self)
	if err != nil {
		t.Fatal(err)
	}
	var none [can.MaxID + 1]bool
	empty, _ := NewCustomSet(nil)
	if _, err := f.Stats(empty); errText(err) != "fsm: ID 0x000 classified undecided, want benign" {
		t.Errorf("self loop: Stats error %v", err)
	}
	if f.Depth() != can.IDBits {
		t.Errorf("self loop: Depth = %d, want %d", f.Depth(), can.IDBits)
	}
	checkAgainstRef(t, "self loop", f, empty, &none)

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		f, err := Unmarshal(randomImage(rng, 1+rng.Intn(12)))
		if err != nil {
			t.Fatal(err)
		}
		// Judge each machine against the set it decides wherever it
		// decides, and against a random set, so both outcomes occur.
		var own, random [can.MaxID + 1]bool
		var ownIDs, randomIDs []can.ID
		for id := can.ID(0); id <= can.MaxID; id++ {
			if dec, _ := f.Classify(id); dec == Malicious {
				own[id] = true
				ownIDs = append(ownIDs, id)
			}
			if rng.Intn(2) == 0 {
				random[id] = true
				randomIDs = append(randomIDs, id)
			}
		}
		dOwn, _ := NewCustomSet(ownIDs)
		dRandom, _ := NewCustomSet(randomIDs)
		checkAgainstRef(t, fmt.Sprintf("image %d own", trial), f, dOwn, &own)
		checkAgainstRef(t, fmt.Sprintf("image %d random", trial), f, dRandom, &random)
	}
}

func TestRandomIVNProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	v, err := RandomIVN(rng, 30)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 30 {
		t.Fatalf("size %d", v.Size())
	}
	ids := v.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not strictly ascending")
		}
	}
	if _, err := RandomIVN(rng, 0); !errors.Is(err, ErrEmptyIVN) {
		t.Errorf("n=0: %v, want ErrEmptyIVN", err)
	}
	for _, n := range []int{int(can.MaxID) + 2, 5000} {
		_, err := RandomIVN(rng, n)
		if err == nil || errors.Is(err, ErrEmptyIVN) || !strings.Contains(err.Error(), fmt.Sprint(n)) {
			t.Errorf("n=%d beyond the ID space: %v, want a size error naming n", n, err)
		}
	}
	v, err = RandomIVN(rng, int(can.MaxID)+1)
	if err != nil || v.Size() != int(can.MaxID)+1 {
		t.Fatalf("whole ID space: %v", err)
	}
}

// refRandomIVN is the map-based draw: IDs uniformly at random until n
// distinct ones have been seen, sorted afterwards.
func refRandomIVN(rng *rand.Rand, n int) []can.ID {
	seen := make(map[can.ID]struct{}, n)
	ids := make([]can.ID, 0, n)
	for len(ids) < n {
		id := can.ID(rng.Intn(int(can.MaxID) + 1))
		if _, ok := seen[id]; ok {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// TestRandomIVNDrawSequence pins the generator stream the detection study's
// results depend on: the same IDs as the map-based draw, from exactly as
// many draws.
func TestRandomIVNDrawSequence(t *testing.T) {
	for _, seed := range []int64{1, 7, 160} {
		for _, n := range []int{1, 2, 64, 1024, int(can.MaxID) + 1} {
			rng := rand.New(rand.NewSource(seed))
			ref := rand.New(rand.NewSource(seed))
			v, err := RandomIVN(rng, n)
			if err != nil {
				t.Fatal(err)
			}
			if want := refRandomIVN(ref, n); !slices.Equal(v.IDs(), want) {
				t.Errorf("seed %d N=%d: IDs differ from the map-based draw", seed, n)
			}
			if got, want := rng.Int63(), ref.Int63(); got != want {
				t.Errorf("seed %d N=%d: next draw %d, reference %d", seed, n, got, want)
			}
		}
	}
}

func TestFSMDot(t *testing.T) {
	d, err := NewCustomSet([]can.ID{0x7FF})
	if err != nil {
		t.Fatal(err)
	}
	f := Build(d)
	dot := f.Dot("test")
	if len(dot) == 0 || dot[0] != 'd' {
		t.Error("dot output malformed")
	}
}

// TestDetectionLatencyShape checks the headline Sec. V-B result at reduced
// scale: over random IVNs, the mean detection bit position is well below the
// full 11 bits (the paper reports a mean of ~9).
func TestDetectionLatencyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	total, count := 0.0, 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(62)
		v, err := RandomIVN(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		i := rng.Intn(n)
		d, err := NewDetectionSet(v, i)
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() == 0 {
			continue
		}
		stats, err := Build(d).Stats(d)
		if err != nil {
			t.Fatal(err)
		}
		total += stats.MeanBits
		count++
	}
	mean := total / float64(count)
	if mean >= float64(can.IDBits) {
		t.Errorf("mean detection position %.2f should be below 11", mean)
	}
	if mean < 4 || mean > 10.5 {
		t.Errorf("mean detection position %.2f outside plausible band [4,10.5]", mean)
	}
	t.Logf("mean detection bit position over %d random FSMs: %.2f (paper: ~9)", count, mean)
}

// TestFillIntoReusedStorage builds random IVNs, sets and FSMs into one
// reused IVN, DetectionSet and FSM and checks each against the allocating
// constructors on the same stream: IDs, 𝔻, Size, Stats, Depth and the
// classification of all 2048 IDs. The sizes alternate so that every small
// set follows a larger one, where stale nodes or bits would show. Once the
// storage has grown, a fill, rebuild and verification allocate nothing.
func TestFillIntoReusedStorage(t *testing.T) {
	var (
		v IVN
		d DetectionSet
		f FSM
	)
	for trial, n := range []int{2048, 1, 1024, 2, 300, 5, 64, 3, 700, 64, 2000, 17} {
		seed := int64(100 + trial)
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if err := v.FillRandom(rng, n); err != nil {
			t.Fatal(err)
		}
		if err := d.Fill(&v, rng.Intn(n)); err != nil {
			t.Fatal(err)
		}
		f.Rebuild(&d)

		wantV, err := RandomIVN(ref, n)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := NewDetectionSet(wantV, ref.Intn(n))
		if err != nil {
			t.Fatal(err)
		}
		want := Build(wantD)

		name := fmt.Sprintf("trial %d N=%d", trial, n)
		if !slices.Equal(v.IDs(), wantV.IDs()) {
			t.Fatalf("%s: IVN differs from RandomIVN", name)
		}
		if d.Size() != wantD.Size() || !slices.Equal(d.IDs(), wantD.IDs()) {
			t.Fatalf("%s: 𝔻 differs from NewDetectionSet", name)
		}
		if f.Size() != want.Size() || f.Depth() != want.Depth() {
			t.Fatalf("%s: size/depth %d/%d, Build gives %d/%d",
				name, f.Size(), f.Depth(), want.Size(), want.Depth())
		}
		got, gerr := f.Stats(&d)
		exp, eerr := want.Stats(wantD)
		if got != exp || gerr != nil || eerr != nil {
			t.Fatalf("%s: Stats %+v (%v), Build gives %+v (%v)", name, got, gerr, exp, eerr)
		}
		for id := can.ID(0); id <= can.MaxID; id++ {
			gd, gb := f.Classify(id)
			wd, wb := want.Classify(id)
			if gd != wd || gb != wb {
				t.Fatalf("%s: ID %s classified %v@%d, Build gives %v@%d", name, id, gd, gb, wd, wb)
			}
		}
	}

	// The detection study's range, N ≤ 64, fits the storage grown above.
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(100, func() {
		n := 1 + rng.Intn(64)
		if err := v.FillRandom(rng, n); err != nil {
			t.Fatal(err)
		}
		if err := d.Fill(&v, rng.Intn(n)); err != nil {
			t.Fatal(err)
		}
		f.Rebuild(&d)
		if _, err := f.Stats(&d); err != nil {
			t.Fatal(err)
		}
		_ = f.Depth()
	})
	if allocs != 0 {
		t.Errorf("fill, rebuild and verify into grown storage: %v allocs, want 0", allocs)
	}
}
