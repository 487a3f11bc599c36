package gc

import (
	"bytes"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
	"deepsecure/internal/sched"
)

// refDouble is the byte-wise carry-loop doubling the uint64 fast path
// replaced; the two must agree on every input.
func refDouble(l Label) Label {
	var r Label
	carry := byte(0)
	for i := LabelSize - 1; i >= 0; i-- {
		r[i] = l[i]<<1 | carry
		carry = l[i] >> 7
	}
	if carry != 0 {
		r[LabelSize-1] ^= 0x87
	}
	return r
}

func TestDoubleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		var l Label
		rng.Read(l[:])
		if i == 0 {
			l = Label{} // all zero
		}
		if i == 1 {
			for j := range l {
				l[j] = 0xff
			}
		}
		if got, want := double(l), refDouble(l); got != want {
			t.Fatalf("double(%x) = %x, want %x", l, got, want)
		}
	}
}

func TestIsZero(t *testing.T) {
	var z Label
	if !z.IsZero() {
		t.Fatal("zero label reported non-zero")
	}
	for i := 0; i < LabelSize; i++ {
		l := Label{}
		l[i] = 1
		if l.IsZero() {
			t.Fatalf("label with byte %d set reported zero", i)
		}
	}
}

// levelInputs is how many pre-assigned input wires (2, 3, …) an
// independentLevel draws its gate operands from.
const levelInputs = 16

// independentLevel builds one level of mutually independent gates over
// the input wires [2, 2+levelInputs): nAND AND gates followed by free
// gates, with disjoint output wires. maxWire bounds every wire id used.
func independentLevel(rng *rand.Rand, nAND, nFree int) (ands, frees []circuit.Gate, maxWire uint32) {
	next := uint32(2 + levelInputs)
	in := func() uint32 { return 2 + uint32(rng.Intn(levelInputs)) }
	for i := 0; i < nAND; i++ {
		ands = append(ands, circuit.Gate{Op: circuit.AND, A: in(), B: in(), Out: next})
		next++
	}
	for i := 0; i < nFree; i++ {
		gate := circuit.Gate{Op: circuit.XOR, A: in(), B: in(), Out: next}
		if rng.Intn(3) == 0 {
			gate = circuit.Gate{Op: circuit.INV, A: in(), Out: next}
		}
		frees = append(frees, gate)
		next++
	}
	return ands, frees, next
}

// assignLevelInputs draws the zero-labels of an independentLevel's
// input wires on a B-sample level garbler.
func assignLevelInputs(t testing.TB, g *BatchGarbler) {
	t.Helper()
	for w := uint32(2); w < 2+levelInputs; w++ {
		if err := g.AssignInput(w); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchMatchesSequential pins the level kernel to the scalar oracle:
// for one level of independent gates, a B=1 GarbleLevel with any worker
// count must draw its delta, constant labels and input labels from the
// rng exactly as NewGarbler/AssignInput do, produce byte-identical tables
// and the same zero-label on every wire as the per-gate Garble loop, and
// send the same const-label payload. EvaluateLevel and the per-gate Eval
// must then both decode those tables to the plaintext semantics.
func TestBatchMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(31))
		ands, frees, maxWire := independentLevel(rng, 200, 100)
		gSeq, err := NewGarbler(rand.New(rand.NewSource(32)))
		if err != nil {
			t.Fatal(err)
		}
		gLv, err := NewBatchGarbler(rand.New(rand.NewSource(32)), 1)
		if err != nil {
			t.Fatal(err)
		}
		gLv.Grow(maxWire)
		for w := uint32(2); w < 2+levelInputs; w++ {
			if _, err := gSeq.AssignInput(w); err != nil {
				t.Fatal(err)
			}
		}
		assignLevelInputs(t, gLv)

		// Sequential: ANDs first, then frees, matching level order.
		var seqTables []byte
		for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
			if seqTables, err = gSeq.Garble(gate, seqTables); err != nil {
				t.Fatal(err)
			}
		}
		pool := NewSharedPool(sched.Default(), workers)
		lvTables := make([]byte, len(ands)*TableSize)
		if err := gLv.GarbleLevel(ands, frees, 0, lvTables, pool); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seqTables, lvTables) {
			t.Fatalf("workers=%d: level tables differ from sequential garbling", workers)
		}
		if gSeq.R != gLv.R[0] {
			t.Fatalf("workers=%d: B=1 delta differs from the scalar garbler's", workers)
		}
		for w := uint32(0); w < maxWire; w++ {
			ls, err1 := gSeq.ZeroLabel(w)
			lb, err2 := gLv.ZeroLabel(w, 0)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("workers=%d: wire %d presence differs", workers, w)
			}
			if err1 == nil && ls != lb {
				t.Fatalf("workers=%d: wire %d label differs", workers, w)
			}
		}
		if gLv.ANDGates != gSeq.ANDGates || gLv.FreeGates != gSeq.FreeGates {
			t.Fatalf("workers=%d: gate counters %d/%d, scalar %d/%d", workers,
				gLv.ANDGates, gLv.FreeGates, gSeq.ANDGates, gSeq.FreeGates)
		}
		lf, lt, err := gSeq.ConstLabels()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := gLv.AppendConstLabels(nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(append([]byte{}, lf[:]...), lt[:]...); !bytes.Equal(payload, want) {
			t.Fatalf("workers=%d: B=1 const-label payload differs from the scalar garbler's", workers)
		}

		// Evaluate with both the level kernel and the per-gate oracle on
		// random plaintext inputs and check every gate's active label.
		evLv, err := NewBatchEvaluator(1)
		if err != nil {
			t.Fatal(err)
		}
		evLv.Grow(maxWire)
		evSeq := NewEvaluator()
		bits := make(map[uint32]bool)
		set := func(w uint32, bit bool) {
			l := mustActive(t, gSeq, w, bit)
			evLv.SetLabel(w, 0, l)
			evSeq.SetLabel(w, l)
			bits[w] = bit
		}
		set(circuit.WFalse, false)
		set(circuit.WTrue, true)
		for w := uint32(2); w < 2+levelInputs; w++ {
			set(w, rng.Intn(2) == 1)
		}
		if err := evLv.EvaluateLevel(ands, frees, 0, lvTables, pool); err != nil {
			t.Fatal(err)
		}
		rest := seqTables
		for _, gate := range append(append([]circuit.Gate{}, ands...), frees...) {
			if rest, err = evSeq.Eval(gate, rest); err != nil {
				t.Fatal(err)
			}
			var want bool
			switch gate.Op {
			case circuit.AND:
				want = bits[gate.A] && bits[gate.B]
			case circuit.XOR:
				want = bits[gate.A] != bits[gate.B]
			case circuit.INV:
				want = !bits[gate.A]
			}
			wl := mustActive(t, gSeq, gate.Out, want)
			gotLv, err := evLv.Label(gate.Out, 0)
			if err != nil {
				t.Fatal(err)
			}
			gotSeq, err := evSeq.Label(gate.Out)
			if err != nil {
				t.Fatal(err)
			}
			if gotLv != wl || gotSeq != wl {
				t.Fatalf("workers=%d: gate %+v evaluated to wrong label", workers, gate)
			}
			bits[gate.Out] = want
		}
		if len(rest) != 0 {
			t.Fatalf("workers=%d: per-gate evaluation left %d table bytes", workers, len(rest))
		}
	}
}

func mustActive(t *testing.T, g *Garbler, w uint32, bit bool) Label {
	t.Helper()
	l, err := g.ActiveLabel(w, bit)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestBatchErrors covers the level-kernel preconditions.
func TestBatchErrors(t *testing.T) {
	if _, err := NewBatchGarbler(rand.New(rand.NewSource(41)), 0); err == nil {
		t.Fatal("zero-sample garbler accepted")
	}
	if _, err := NewBatchEvaluator(0); err == nil {
		t.Fatal("zero-sample evaluator accepted")
	}
	g, err := NewBatchGarbler(rand.New(rand.NewSource(41)), 1)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSharedPool(sched.Default(), 2)
	and := []circuit.Gate{{Op: circuit.AND, A: 2, B: 3, Out: 4}}
	if err := g.GarbleLevel(and, nil, 0, make([]byte, 1), pool); err == nil {
		t.Fatal("short table accepted")
	}
	// Unassigned input wires must fail, not garble garbage.
	g.Grow(8)
	if err := g.GarbleLevel(and, nil, 0, make([]byte, TableSize), pool); err == nil {
		t.Fatal("garbling over missing labels accepted")
	}
	// Output wires past the grown storage must fail, not grow under the
	// workers' feet.
	assignLevelInputs(t, g)
	wide := []circuit.Gate{{Op: circuit.AND, A: 2, B: 3, Out: 99}}
	if err := g.GarbleLevel(wide, nil, 0, make([]byte, TableSize), pool); err == nil {
		t.Fatal("garbling past the grown label storage accepted")
	}
	e, err := NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	e.Grow(8)
	if err := e.EvaluateLevel(and, nil, 0, make([]byte, 1), pool); err == nil {
		t.Fatal("short table accepted by evaluator")
	}
	if err := e.EvaluateLevel(and, nil, 0, make([]byte, TableSize), pool); err == nil {
		t.Fatal("evaluating over missing labels accepted")
	}
}

// BenchmarkGarbleGate measures a single AND-gate garble on the hot path
// (four fixed-key AES hashes plus label XORs) — the unit the double() and
// IsZero() uint64 fast paths speed up.
func BenchmarkGarbleGate(b *testing.B) {
	g, err := NewGarbler(rand.New(rand.NewSource(51)))
	if err != nil {
		b.Fatal(err)
	}
	for w := uint32(2); w < 8; w++ {
		if _, err := g.AssignInput(w); err != nil {
			b.Fatal(err)
		}
	}
	g.ensure(16)
	h := NewHasher()
	gate := circuit.Gate{Op: circuit.AND, A: 2, B: 3, Out: 9}
	dst := make([]byte, TableSize)
	b.SetBytes(TableSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.garbleAND(h, gate, uint64(i), dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDouble isolates the GF(2^128) doubling inside the garbling
// hash.
func BenchmarkDouble(b *testing.B) {
	var l Label
	rand.New(rand.NewSource(52)).Read(l[:])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l = double(l)
	}
	if l.IsZero() {
		b.Fatal("impossible")
	}
}

// BenchmarkLabelIsZero isolates the zero-sentinel check.
func BenchmarkLabelIsZero(b *testing.B) {
	var l Label
	l[15] = 1
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.IsZero() {
			n++
		}
	}
	if n != 0 {
		b.Fatal("impossible")
	}
}
