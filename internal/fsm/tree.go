package fsm

import (
	"fmt"
	"strings"

	"michican/internal/can"
)

// FSM is the earliest-decision binary tree over the 11 CAN ID bits (MSB
// first). Each internal node branches on the next observed ID bit; a subtree
// whose identifiers are entirely inside (or entirely outside) the detection
// set collapses into a Malicious (or Benign) leaf, which is what lets most
// attacks be detected before the full 11-bit ID has been observed
// (Sec. V-B reports a mean detection position of ~9 bits).
type FSM struct {
	nodes []treeNode
	// eval is the streaming cursor used by Step.
	eval int32
	done Decision
}

// treeNode is one state. Leaves carry a decision; internal nodes carry child
// indices for the dominant (0) and recessive (1) transitions.
type treeNode struct {
	child    [2]int32 // -1 on leaves
	decision Decision // Undecided on internal nodes
}

// Build generates the FSM for a detection set. The construction is the
// paper's offline initial-configuration step.
func Build(d *DetectionSet) *FSM {
	f := &FSM{nodes: make([]treeNode, 0, 64)}
	f.Rebuild(d)
	return f
}

// Rebuild regenerates f in place as the FSM Build(d) returns, reusing f's
// node storage, and resets its streaming evaluator. Cursors taken from f
// before the call are invalid after it.
func (f *FSM) Rebuild(d *DetectionSet) {
	f.nodes = f.nodes[:0]
	f.build(d, 0, int(can.MaxID)+1)
	f.Reset()
}

// build recursively constructs the subtree covering the identifier block
// [lo, lo+size) and returns its node index. Every block is a power-of-two
// size on a matching boundary, so its malicious count is one popcount.
func (f *FSM) build(d *DetectionSet, lo can.ID, size int) int32 {
	idx := int32(len(f.nodes))
	switch d.count(lo, size) {
	case size:
		f.nodes = append(f.nodes, treeNode{child: [2]int32{-1, -1}, decision: Malicious})
	case 0:
		f.nodes = append(f.nodes, treeNode{child: [2]int32{-1, -1}, decision: Benign})
	default:
		f.nodes = append(f.nodes, treeNode{child: [2]int32{-1, -1}})
		half := size / 2
		left := f.build(d, lo, half)               // dominant = 0 = lower half
		right := f.build(d, lo+can.ID(half), half) // recessive = 1 = upper half
		f.nodes[idx].child[0] = left
		f.nodes[idx].child[1] = right
	}
	return idx
}

// Reset rewinds the streaming evaluator to the root (done at every SOF).
func (f *FSM) Reset() {
	f.eval = 0
	f.done = f.nodes[0].decision
}

// Step consumes the next CAN ID bit (MSB first) and returns the decision so
// far. Once a decision is reached further calls return it unchanged; the
// defense stops stepping the FSM after a decision to save CPU cycles
// (Algorithm 1, line 11).
func (f *FSM) Step(bit can.Level) Decision {
	if f.done != Undecided {
		return f.done
	}
	next := f.nodes[f.eval].child[bit&1]
	f.eval = next
	f.done = f.nodes[next].decision
	return f.done
}

// Decided returns the current decision of the streaming evaluator.
func (f *FSM) Decided() Decision { return f.done }

// Classify evaluates a complete identifier and returns the decision together
// with the number of ID bits consumed before the decision was reached (the
// detection bit position of Sec. V-B; 11 means the full ID was needed).
func (f *FSM) Classify(id can.ID) (Decision, int) {
	node := int32(0)
	if dec := f.nodes[0].decision; dec != Undecided {
		return dec, 0
	}
	for i := 0; i < can.IDBits; i++ {
		node = f.nodes[node].child[id.Bit(i)&1]
		if dec := f.nodes[node].decision; dec != Undecided {
			return dec, i + 1
		}
	}
	// The tree bottoms out at depth 11 with a decision by construction.
	return f.nodes[node].decision, can.IDBits
}

// Size returns the number of FSM states, the complexity measure behind the
// paper's "CPU load depends on FSM complexity" observation.
func (f *FSM) Size() int { return len(f.nodes) }

// Depth returns the maximum decision depth over all 2048 identifiers.
func (f *FSM) Depth() int {
	deepest := 0
	// The visitor never fails, so neither does the walk.
	_ = f.walk(0, 0, 0, func(_ int32, _ can.ID, depth int) error {
		deepest = max(deepest, depth)
		return nil
	})
	return deepest
}

// walk visits, in ascending ID order, the state every identifier ends in
// when classified: node n at depth k covers the 2^(11-k) IDs from lo that
// share its k-bit path, and the walk stops at a decided node or after all
// 11 ID bits. It follows the child edges exactly as Classify does (child 0
// at depth k is ID bit k = 0, MSB first), so the blocks it reports
// partition the ID space even when an Unmarshaled image shares or cycles
// its edges, and it always terminates.
func (f *FSM) walk(n int32, lo can.ID, depth int, visit func(n int32, lo can.ID, depth int) error) error {
	if f.nodes[n].decision != Undecided || depth == can.IDBits {
		return visit(n, lo, depth)
	}
	if err := f.walk(f.nodes[n].child[0], lo, depth+1, visit); err != nil {
		return err
	}
	return f.walk(f.nodes[n].child[1], lo+1<<(can.IDBits-1-depth), depth+1, visit)
}

// DetectionStats summarizes how early the FSM detects the IDs it flags.
type DetectionStats struct {
	// Detected counts identifiers classified malicious.
	Detected int
	// MeanBits is the mean detection bit position over detected IDs.
	MeanBits float64
	// MaxBits is the worst-case detection bit position.
	MaxBits int
}

// Stats computes detection statistics against the generating set, verifying
// a 100% detection rate in the process: every ID in d must classify
// malicious and every ID outside must classify benign, or an error naming
// the lowest misclassified ID is returned with zero stats (the paper's
// correctness check over 160,000 random FSMs). One walk checks each final
// state's whole ID block against d at once, so all 2048 IDs are verified in
// time linear in the FSM's size.
func (f *FSM) Stats(d *DetectionSet) (DetectionStats, error) {
	var out DetectionStats
	sum := 0
	err := f.walk(0, 0, 0, func(n int32, lo can.ID, depth int) error {
		size := 1 << (can.IDBits - depth)
		dec := f.nodes[n].decision
		switch flagged := d.count(lo, size); {
		case dec == Malicious && flagged == size:
			out.Detected += size
			sum += size * depth
			out.MaxBits = max(out.MaxBits, depth)
			return nil
		case dec == Benign && flagged == 0:
			return nil
		}
		for id := lo; ; id++ {
			want := Benign
			if d.has(id) {
				want = Malicious
			}
			if dec != want {
				return fmt.Errorf("fsm: ID %s classified %v, want %v", id, dec, want)
			}
		}
	})
	if err != nil {
		return DetectionStats{}, err
	}
	if out.Detected > 0 {
		out.MeanBits = float64(sum) / float64(out.Detected)
	}
	return out, nil
}

// Dot renders the FSM in Graphviz dot syntax (for cmd/fsmgen).
func (f *FSM) Dot(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", name)
	for i, n := range f.nodes {
		switch n.decision {
		case Malicious:
			fmt.Fprintf(&b, "  n%d [label=\"MAL\" shape=box style=filled fillcolor=salmon];\n", i)
		case Benign:
			fmt.Fprintf(&b, "  n%d [label=\"OK\" shape=box style=filled fillcolor=palegreen];\n", i)
		default:
			fmt.Fprintf(&b, "  n%d [label=\"\" shape=circle];\n", i)
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"0\"];\n", i, n.child[0])
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"1\"];\n", i, n.child[1])
		}
	}
	b.WriteString("}\n")
	return b.String()
}
