package gc

import (
	"fmt"
	"io"

	"deepsecure/internal/circuit"
)

// Garbler holds the garbling state for one protocol session: the global
// Free-XOR delta, the zero-label of every live wire, and the gate counter
// that keys the hash tweaks. It is driven gate-by-gate in netlist order.
// Production garbling runs the level kernel (BatchGarbler); this scalar
// garbler is the reference oracle the gc tests compare it against.
type Garbler struct {
	R Label
	// r2 caches double(R): doubling is GF(2)-linear, so 2(L⊕R) = 2L ⊕ 2R
	// and every one-labels' hash key derives from its zero-label's double
	// with one XOR instead of a second doubling.
	r2     Label
	h      *Hasher
	rng    io.Reader
	labels []Label // zero-labels indexed by wire id
	have   []bool
	gid    uint64

	// Stats
	ANDGates  int64
	FreeGates int64
}

// NewGarbler creates a garbler drawing randomness from rng and assigns
// labels to the two constant wires.
func NewGarbler(rng io.Reader) (*Garbler, error) {
	r, err := RandomDelta(rng)
	if err != nil {
		return nil, err
	}
	g := &Garbler{R: r, r2: double(r), h: NewHasher(), rng: rng}
	for _, w := range []uint32{circuit.WFalse, circuit.WTrue} {
		if _, err := g.AssignInput(w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *Garbler) ensure(w uint32) {
	for uint32(len(g.labels)) <= w {
		g.labels = append(g.labels, Label{})
		g.have = append(g.have, false)
	}
}

// AssignInput draws a fresh zero-label for wire w and returns it.
func (g *Garbler) AssignInput(w uint32) (Label, error) {
	l, err := RandomLabel(g.rng)
	if err != nil {
		return Label{}, err
	}
	g.ensure(w)
	g.labels[w] = l
	g.have[w] = true
	return l, nil
}

// ZeroLabel returns the zero-semantics label of wire w.
func (g *Garbler) ZeroLabel(w uint32) (Label, error) {
	if uint32(len(g.labels)) <= w || !g.have[w] {
		return Label{}, fmt.Errorf("gc: garbler has no label for wire %d", w)
	}
	return g.labels[w], nil
}

// ActiveLabel returns the label encoding the given plaintext bit on wire w
// (zero-label for 0, zero-label ⊕ R for 1).
func (g *Garbler) ActiveLabel(w uint32, bit bool) (Label, error) {
	l, err := g.ZeroLabel(w)
	if err != nil {
		return Label{}, err
	}
	if bit {
		return l.XOR(g.R), nil
	}
	return l, nil
}

// ConstLabels returns the active labels of the two constant wires, which
// the garbler sends to the evaluator at session start.
func (g *Garbler) ConstLabels() (lFalse, lTrue Label, err error) {
	lFalse, err = g.ActiveLabel(circuit.WFalse, false)
	if err != nil {
		return
	}
	lTrue, err = g.ActiveLabel(circuit.WTrue, true)
	return
}

// Garble processes one gate against the internal AND counter, the
// streaming face of the engine: for AND gates it appends the two
// half-gate ciphertexts (TableSize bytes) to table and returns the
// extended slice; XOR and INV gates are free and return table unchanged.
// The cryptography itself lives in garbleAND/garbleFree (batch.go),
// shared with the level kernel (vec.go).
func (g *Garbler) Garble(gate circuit.Gate, table []byte) ([]byte, error) {
	g.ensure(gate.Out)
	switch gate.Op {
	case circuit.XOR, circuit.INV:
		if err := g.garbleFree(gate); err != nil {
			return table, err
		}
		g.FreeGates++
		return table, nil

	case circuit.AND:
		off := len(table)
		table = append(table, make([]byte, TableSize)...)
		if err := g.garbleAND(g.h, gate, g.gid, table[off:off+TableSize]); err != nil {
			return table[:off], err
		}
		g.gid++
		g.ANDGates++
		return table, nil

	default:
		return table, fmt.Errorf("gc: cannot garble op %v", gate.Op)
	}
}

// Drop forgets the label of a dead wire (its id may be recycled).
func (g *Garbler) Drop(w uint32) {
	if uint32(len(g.have)) > w {
		g.have[w] = false
	}
}

// DecodeBit maps an output-wire label reported by the evaluator back to a
// plaintext bit, verifying the label is authentic (it must be one of the
// two labels the garbler created for the wire). A tampered or corrupted
// evaluation fails here instead of yielding a wrong bit.
func (g *Garbler) DecodeBit(w uint32, reported Label) (bool, error) {
	zero, err := g.ZeroLabel(w)
	if err != nil {
		return false, err
	}
	if reported == zero {
		return false, nil
	}
	if reported == zero.XOR(g.R) {
		return true, nil
	}
	return false, fmt.Errorf("gc: output label for wire %d is not authentic", w)
}
