package gc

import (
	"fmt"

	"deepsecure/internal/circuit"
)

// Evaluator holds the evaluation state: the single active label per live
// wire and the same gate counter the garbler uses for hash tweaks. Like
// Garbler it is the scalar reference oracle for the level kernel
// (BatchEvaluator), which production evaluation runs.
type Evaluator struct {
	h      *Hasher
	labels []Label
	have   []bool
	gid    uint64
}

// NewEvaluator creates an evaluator. The constant-wire labels must be set
// with SetLabel before any gate referencing them is evaluated.
func NewEvaluator() *Evaluator {
	return &Evaluator{h: NewHasher()}
}

func (e *Evaluator) ensure(w uint32) {
	for uint32(len(e.labels)) <= w {
		e.labels = append(e.labels, Label{})
		e.have = append(e.have, false)
	}
}

// SetLabel installs the active label for wire w (inputs, constants).
func (e *Evaluator) SetLabel(w uint32, l Label) {
	e.ensure(w)
	e.labels[w] = l
	e.have[w] = true
}

// Label returns the active label of wire w.
func (e *Evaluator) Label(w uint32) (Label, error) {
	if uint32(len(e.labels)) <= w || !e.have[w] {
		return Label{}, fmt.Errorf("gc: evaluator has no label for wire %d", w)
	}
	return e.labels[w], nil
}

// Eval processes one gate against the internal AND counter, the
// streaming face of the engine: for AND gates it consumes TableSize
// bytes from table and returns the remainder; XOR and INV gates consume
// nothing. The cryptography itself lives in evalAND/evalFree (batch.go),
// shared with the level kernel (vec.go).
func (e *Evaluator) Eval(gate circuit.Gate, table []byte) ([]byte, error) {
	e.ensure(gate.Out)
	switch gate.Op {
	case circuit.XOR, circuit.INV:
		return table, e.evalFree(gate)

	case circuit.AND:
		if len(table) < TableSize {
			return table, fmt.Errorf("gc: garbled table underrun (have %d bytes, need %d)", len(table), TableSize)
		}
		if err := e.evalAND(e.h, gate, e.gid, table[:TableSize]); err != nil {
			return table, err
		}
		e.gid++
		return table[TableSize:], nil

	default:
		return table, fmt.Errorf("gc: cannot evaluate op %v", gate.Op)
	}
}

// Drop forgets a dead wire's label.
func (e *Evaluator) Drop(w uint32) {
	if uint32(len(e.have)) > w {
		e.have[w] = false
	}
}
