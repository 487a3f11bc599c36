package gc

import (
	"encoding/binary"
	"fmt"
	"io"

	"deepsecure/internal/circuit"
)

// This file is the level kernel every session engine runs: one garbling
// state covering B independent sample instances of the same circuit (a
// single inference is B=1). Labels are stored structure-of-arrays — B
// contiguous labels per wire slot, sample s of wire w at labels[w*B+s] —
// so the level engines walk the gate schedule ONCE per level and iterate
// samples innermost: one tweak derivation, one gate decode, and one
// bounds check per gate for all B samples, with the B label loads/stores
// on adjacent cache lines. Every sample has its own fresh Free-XOR delta
// and fresh wire labels (drawn from the same rng stream a single
// inference would use), so the transcript of each sample is exactly the
// transcript a lone inference would produce under the same randomness —
// batching amortizes the schedule walk, not the cryptography — and B=1
// is byte-identical to the scalar Garble/Eval oracle (pinned by
// TestBatchMatchesSequential here and by the core package's conformance
// suite).
//
// The garbled tables of a level are likewise interleaved gate-major with
// samples innermost: AND gate rank i, sample s writes its two
// ciphertexts at (i*B+s)*TableSize. Both parties derive the layout from
// the schedule and B alone.

// BatchGarbler is the garbling state for one inference sub-stream of B
// independent samples. It shares the half-gates cryptography
// (garbleANDWide) with the scalar Garbler oracle.
type BatchGarbler struct {
	// R holds the per-sample Free-XOR deltas (len B): samples are
	// cryptographically independent instances, exactly as if each ran its
	// own inference.
	R []Label
	// r2 caches double(R[s]) per sample (see Garbler.r2): doubling is
	// GF(2)-linear, so every one-label's hash key derives from its
	// zero-label's double with one XOR.
	r2 []Label

	b      int
	rng    io.Reader
	labels []Label // zero-labels, wire-major: sample s of wire w at [w*b+s]
	have   []bool  // per wire (all B samples assign and drop together)
	buf    []byte  // randomness staging for bulk label draws

	// Stats count gate-instances: each gate contributes B to the counter,
	// matching the AES work done and the table bytes on the wire.
	ANDGates  int64
	FreeGates int64
}

// NewBatchGarbler creates a garbler for a batch of b samples, drawing
// each sample's delta and constant-wire labels from rng in the same
// order a single-inference Garbler would (at b=1 the rng consumption is
// identical to NewGarbler's).
func NewBatchGarbler(rng io.Reader, b int) (*BatchGarbler, error) {
	if b < 1 {
		return nil, fmt.Errorf("gc: batch size %d < 1", b)
	}
	g := &BatchGarbler{b: b, rng: rng, R: make([]Label, b), r2: make([]Label, b)}
	for s := range g.R {
		r, err := RandomDelta(rng)
		if err != nil {
			return nil, err
		}
		g.R[s] = r
		g.r2[s] = double(r)
	}
	for _, w := range []uint32{circuit.WFalse, circuit.WTrue} {
		if err := g.AssignInput(w); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// B returns the batch size.
func (g *BatchGarbler) B() int { return g.b }

func (g *BatchGarbler) ensure(w uint32) {
	for uint32(len(g.have)) <= w {
		g.labels = append(g.labels, make([]Label, g.b)...)
		g.have = append(g.have, false)
	}
}

// Grow pre-sizes label storage for wires [0, n) in one exact-size
// allocation. Level calls never grow storage themselves (growth would
// race between workers), so the engine must Grow to the schedule's
// namespace once per inference.
func (g *BatchGarbler) Grow(n uint32) {
	if uint32(len(g.have)) >= n {
		return
	}
	labels := make([]Label, int(n)*g.b)
	copy(labels, g.labels)
	g.labels = labels
	have := make([]bool, n)
	copy(have, g.have)
	g.have = have
}

// AssignInput draws B fresh zero-labels for wire w, sample-innermost
// from the shared rng (sample 0 first — the order a serial run of B
// single inferences would only match at B=1, which is the conformance
// case).
func (g *BatchGarbler) AssignInput(w uint32) error {
	g.ensure(w)
	need := g.b * LabelSize
	if cap(g.buf) < need {
		g.buf = make([]byte, need)
	}
	buf := g.buf[:need]
	if _, err := io.ReadFull(g.rng, buf); err != nil {
		return fmt.Errorf("gc: label randomness: %w", err)
	}
	base := int(w) * g.b
	for s := 0; s < g.b; s++ {
		copy(g.labels[base+s][:], buf[s*LabelSize:])
	}
	g.have[w] = true
	return nil
}

// ZeroLabel returns sample s's zero-semantics label of wire w.
func (g *BatchGarbler) ZeroLabel(w uint32, s int) (Label, error) {
	if uint32(len(g.have)) <= w || !g.have[w] {
		return Label{}, fmt.Errorf("gc: batch garbler has no label for wire %d", w)
	}
	return g.labels[int(w)*g.b+s], nil
}

// ActiveLabel returns sample s's label encoding the given plaintext bit
// on wire w.
func (g *BatchGarbler) ActiveLabel(w uint32, s int, bit bool) (Label, error) {
	l, err := g.ZeroLabel(w, s)
	if err != nil {
		return Label{}, err
	}
	if bit {
		return l.XOR(g.R[s]), nil
	}
	return l, nil
}

// AppendConstLabels appends the batch's constant-wire active labels to
// dst in the protocol's wire-major layout: the B false-labels, then the
// B true-labels. At B=1 the payload equals the single path's
// ConstLabels frame.
func (g *BatchGarbler) AppendConstLabels(dst []byte) ([]byte, error) {
	for s := 0; s < g.b; s++ {
		l, err := g.ActiveLabel(circuit.WFalse, s, false)
		if err != nil {
			return dst, err
		}
		dst = append(dst, l[:]...)
	}
	for s := 0; s < g.b; s++ {
		l, err := g.ActiveLabel(circuit.WTrue, s, true)
		if err != nil {
			return dst, err
		}
		dst = append(dst, l[:]...)
	}
	return dst, nil
}

// Drop forgets all B labels of a dead wire (its id may be recycled).
func (g *BatchGarbler) Drop(w uint32) {
	if uint32(len(g.have)) > w {
		g.have[w] = false
	}
}

// GarbleLevel garbles one schedule level for all B samples: the i-th AND
// gate has global AND index gidBase+i — the same tweak pair for every
// sample, computed once — and sample s writes its ciphertexts at
// table[(i*B+s)*TableSize:]; table must hold len(ands)*B*TableSize
// bytes. Gates are striped over pool's workers with the batch size as
// the work multiplier. The caller must guarantee level independence
// (distinct output wires, no gate reading a wire another gate in the
// level writes) — which circuit.NewSchedule establishes — and must have
// Grown the garbler past every wire id in the level.
func (g *BatchGarbler) GarbleLevel(ands, frees []circuit.Gate, gidBase uint64, table []byte, pool *Pool) error {
	b := g.b
	if len(table) != len(ands)*b*TableSize {
		return fmt.Errorf("gc: batch garble table is %d bytes, want %d", len(table), len(ands)*b*TableSize)
	}
	err := pool.runScaled(len(ands), len(frees), b, func(h *Hasher, andLo, andHi, freeLo, freeHi int) error {
		// Lanes gather over flattened (gate, sample) instances: samples
		// within a gate fill first, and units carry across gate boundaries
		// so small-B batches still run full 8-lane waves. out points
		// straight into the label array — safe because units capture their
		// inputs by value and level independence keeps staged reads and
		// writes disjoint.
		var us [garbleUnits]andUnit
		nu := 0
		for i := andLo; i < andHi; i++ {
			gt := ands[i]
			aBase, err := g.base(gt.A)
			if err != nil {
				return err
			}
			bBase, err := g.base(gt.B)
			if err != nil {
				return err
			}
			oBase, err := g.outBase(gt.Out)
			if err != nil {
				return err
			}
			gid := gidBase + uint64(i)
			j0, j1 := 2*gid, 2*gid+1
			dst := table[i*b*TableSize : (i+1)*b*TableSize]
			for s := 0; s < b; s++ {
				us[nu] = andUnit{
					a0: g.labels[aBase+s], b0: g.labels[bBase+s],
					r: g.R[s], r2: g.r2[s],
					j0: j0, j1: j1,
					dst: dst[s*TableSize : (s+1)*TableSize],
					out: &g.labels[oBase+s],
				}
				nu++
				if nu == garbleUnits {
					garbleANDWide(h, &us, nu)
					nu = 0
				}
			}
			g.have[gt.Out] = true
		}
		garbleANDWide(h, &us, nu)
		for i := freeLo; i < freeHi; i++ {
			if err := g.garbleFreeVec(frees[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	g.ANDGates += int64(len(ands) * b)
	g.FreeGates += int64(len(frees) * b)
	return nil
}

// base returns the label-array offset of wire w, which must carry a
// value.
func (g *BatchGarbler) base(w uint32) (int, error) {
	if uint32(len(g.have)) <= w || !g.have[w] {
		return 0, fmt.Errorf("gc: batch garbler has no label for wire %d", w)
	}
	return int(w) * g.b, nil
}

// outBase returns the label-array offset of output wire w, which must be
// within grown storage.
func (g *BatchGarbler) outBase(w uint32) (int, error) {
	if uint32(len(g.have)) <= w {
		return 0, fmt.Errorf("gc: batch garbler label storage not grown past wire %d", w)
	}
	return int(w) * g.b, nil
}

// garbleFreeVec handles the tableless gates (XOR, INV) for all samples.
func (g *BatchGarbler) garbleFreeVec(gt circuit.Gate) error {
	aBase, err := g.base(gt.A)
	if err != nil {
		return err
	}
	oBase, err := g.outBase(gt.Out)
	if err != nil {
		return err
	}
	switch gt.Op {
	case circuit.XOR:
		bBase, err := g.base(gt.B)
		if err != nil {
			return err
		}
		xorLabels(g.labels[oBase:oBase+g.b], g.labels[aBase:aBase+g.b], g.labels[bBase:bBase+g.b])
	case circuit.INV:
		xorLabels(g.labels[oBase:oBase+g.b], g.labels[aBase:aBase+g.b], g.R)
	default:
		return fmt.Errorf("gc: cannot batch-garble op %v", gt.Op)
	}
	g.have[gt.Out] = true
	return nil
}

// xorLabels sets dst[i] = a[i] ⊕ b[i] over equal-length label slices,
// XORing as two uint64 words per label instead of 16 bytes — the free
// gates of the SoA engines are pure label XOR, so this loop is their
// whole cost. Element-wise in-place aliasing (dst overlapping a or b at
// the same index) is fine; Go's [16]byte layout makes the word loads
// exact reinterpretations.
func xorLabels(dst, a, b []Label) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic("gc: xorLabels length mismatch")
	}
	for i := range dst {
		x0 := binary.LittleEndian.Uint64(a[i][0:8]) ^ binary.LittleEndian.Uint64(b[i][0:8])
		x1 := binary.LittleEndian.Uint64(a[i][8:16]) ^ binary.LittleEndian.Uint64(b[i][8:16])
		binary.LittleEndian.PutUint64(dst[i][0:8], x0)
		binary.LittleEndian.PutUint64(dst[i][8:16], x1)
	}
}

// BatchEvaluator is the evaluation state for one inference sub-stream: the
// B active labels per live wire, stored wire-major like BatchGarbler's.
type BatchEvaluator struct {
	b      int
	labels []Label
	have   []bool
}

// NewBatchEvaluator creates an evaluator for a batch of b samples.
func NewBatchEvaluator(b int) (*BatchEvaluator, error) {
	if b < 1 {
		return nil, fmt.Errorf("gc: batch size %d < 1", b)
	}
	return &BatchEvaluator{b: b}, nil
}

// B returns the batch size.
func (e *BatchEvaluator) B() int { return e.b }

func (e *BatchEvaluator) ensure(w uint32) {
	for uint32(len(e.have)) <= w {
		e.labels = append(e.labels, make([]Label, e.b)...)
		e.have = append(e.have, false)
	}
}

// Grow pre-sizes label storage for wires [0, n) in one exact-size
// allocation.
func (e *BatchEvaluator) Grow(n uint32) {
	if uint32(len(e.have)) >= n {
		return
	}
	labels := make([]Label, int(n)*e.b)
	copy(labels, e.labels)
	e.labels = labels
	have := make([]bool, n)
	copy(have, e.have)
	e.have = have
}

// SetLabel installs sample s's active label for wire w (inputs,
// constants). All B samples of a wire must be set before use; the wire
// counts as live once any sample is set.
func (e *BatchEvaluator) SetLabel(w uint32, s int, l Label) {
	e.ensure(w)
	e.labels[int(w)*e.b+s] = l
	e.have[w] = true
}

// Label returns sample s's active label of wire w.
func (e *BatchEvaluator) Label(w uint32, s int) (Label, error) {
	if uint32(len(e.have)) <= w || !e.have[w] {
		return Label{}, fmt.Errorf("gc: batch evaluator has no label for wire %d", w)
	}
	return e.labels[int(w)*e.b+s], nil
}

// Drop forgets a dead wire's labels.
func (e *BatchEvaluator) Drop(w uint32) {
	if uint32(len(e.have)) > w {
		e.have[w] = false
	}
}

func (e *BatchEvaluator) base(w uint32) (int, error) {
	if uint32(len(e.have)) <= w || !e.have[w] {
		return 0, fmt.Errorf("gc: batch evaluator has no label for wire %d", w)
	}
	return int(w) * e.b, nil
}

func (e *BatchEvaluator) outBase(w uint32) (int, error) {
	if uint32(len(e.have)) <= w {
		return 0, fmt.Errorf("gc: batch evaluator label storage not grown past wire %d", w)
	}
	return int(w) * e.b, nil
}

// EvaluateLevel evaluates one schedule level for all B samples, the
// mirror of GarbleLevel: AND gate rank i, sample s consumes the
// TableSize bytes at table[(i*B+s)*TableSize:] under the tweak pair of
// gidBase+i.
func (e *BatchEvaluator) EvaluateLevel(ands, frees []circuit.Gate, gidBase uint64, table []byte, pool *Pool) error {
	b := e.b
	if len(table) != len(ands)*b*TableSize {
		return fmt.Errorf("gc: batch evaluate table is %d bytes, want %d", len(table), len(ands)*b*TableSize)
	}
	return pool.runScaled(len(ands), len(frees), b, func(h *Hasher, andLo, andHi, freeLo, freeHi int) error {
		// Flattened (gate, sample) lane gathering, the mirror of
		// GarbleLevel's.
		var us [evalUnits]evalUnit
		nu := 0
		for i := andLo; i < andHi; i++ {
			gt := ands[i]
			aBase, err := e.base(gt.A)
			if err != nil {
				return err
			}
			bBase, err := e.base(gt.B)
			if err != nil {
				return err
			}
			oBase, err := e.outBase(gt.Out)
			if err != nil {
				return err
			}
			gid := gidBase + uint64(i)
			j0, j1 := 2*gid, 2*gid+1
			tab := table[i*b*TableSize : (i+1)*b*TableSize]
			for s := 0; s < b; s++ {
				us[nu] = evalUnit{
					a: e.labels[aBase+s], b: e.labels[bBase+s],
					j0: j0, j1: j1,
					tab: tab[s*TableSize : (s+1)*TableSize],
					out: &e.labels[oBase+s],
				}
				nu++
				if nu == evalUnits {
					evalANDWide(h, &us, nu)
					nu = 0
				}
			}
			e.have[gt.Out] = true
		}
		evalANDWide(h, &us, nu)
		for i := freeLo; i < freeHi; i++ {
			if err := e.evalFreeVec(frees[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// evalFreeVec handles the tableless gates (XOR, INV) for all samples.
func (e *BatchEvaluator) evalFreeVec(gt circuit.Gate) error {
	aBase, err := e.base(gt.A)
	if err != nil {
		return err
	}
	oBase, err := e.outBase(gt.Out)
	if err != nil {
		return err
	}
	switch gt.Op {
	case circuit.XOR:
		bBase, err := e.base(gt.B)
		if err != nil {
			return err
		}
		xorLabels(e.labels[oBase:oBase+e.b], e.labels[aBase:aBase+e.b], e.labels[bBase:bBase+e.b])
	case circuit.INV:
		// Free inversion: the label carries through; only the garbler's
		// semantics map flips.
		copy(e.labels[oBase:oBase+e.b], e.labels[aBase:aBase+e.b])
	default:
		return fmt.Errorf("gc: cannot batch-evaluate op %v", gt.Op)
	}
	e.have[gt.Out] = true
	return nil
}
