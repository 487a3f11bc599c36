package gc

import (
	"bytes"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
	"deepsecure/internal/sched"
)

// TestXORLabels pins the uint64 fast-path slice XOR to Label.XOR,
// including element-wise in-place aliasing (dst = dst ⊕ b, the INV/XOR
// free-gate shapes) and the length-mismatch panic.
func TestXORLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		a := make([]Label, n)
		b := make([]Label, n)
		for i := range a {
			rng.Read(a[i][:])
			rng.Read(b[i][:])
		}
		want := make([]Label, n)
		for i := range a {
			want[i] = a[i].XOR(b[i])
		}
		dst := make([]Label, n)
		xorLabels(dst, a, b)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d element %d: xorLabels %x, Label.XOR %x", n, i, dst[i], want[i])
			}
		}
		inPlace := append([]Label(nil), a...)
		xorLabels(inPlace, inPlace, b)
		for i := range want {
			if inPlace[i] != want[i] {
				t.Fatalf("n=%d element %d: aliased xorLabels diverged", n, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("xorLabels length mismatch did not panic")
		}
	}()
	xorLabels(make([]Label, 2), make([]Label, 3), make([]Label, 2))
}

func BenchmarkXORLabels(b *testing.B) {
	const n = 1024
	dst := make([]Label, n)
	x := make([]Label, n)
	y := make([]Label, n)
	rng := rand.New(rand.NewSource(89))
	for i := range x {
		rng.Read(x[i][:])
		rng.Read(y[i][:])
	}
	b.Run("xorLabels", func(b *testing.B) {
		b.SetBytes(n * LabelSize)
		for i := 0; i < b.N; i++ {
			xorLabels(dst, x, y)
		}
	})
	b.Run("LabelXOR", func(b *testing.B) {
		b.SetBytes(n * LabelSize)
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = x[j].XOR(y[j])
			}
		}
	})
}

// vecTestLevels is a tiny two-level circuit over input wires 2..5:
// level 0: AND(2,3)→6, XOR(4,5)→7; level 1: AND(6,7)→8, INV(6)→9.
type vecTestLevel struct {
	ands, frees []circuit.Gate
	gidBase     uint64
}

func vecTestLevels() []vecTestLevel {
	return []vecTestLevel{
		{
			ands:    []circuit.Gate{{Op: circuit.AND, A: 2, B: 3, Out: 6}},
			frees:   []circuit.Gate{{Op: circuit.XOR, A: 4, B: 5, Out: 7}},
			gidBase: 0,
		},
		{
			ands:    []circuit.Gate{{Op: circuit.AND, A: 6, B: 7, Out: 8}},
			frees:   []circuit.Gate{{Op: circuit.INV, A: 6, Out: 9}},
			gidBase: 1,
		},
	}
}

// TestBatchGarblerB1MatchesSingle pins the level kernel's B=1 output to
// the single-inference Garbler across a multi-level schedule: same seed,
// ANDs then frees per level through the per-gate Garble loop, identical
// table bytes and identical zero-labels on every wire. This is the
// gc-level half of the batched-protocol conformance chain (the core
// package pins the full wire stream).
func TestBatchGarblerB1MatchesSingle(t *testing.T) {
	const seed = 4401
	levels := vecTestLevels()

	g, err := NewGarbler(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	bg, err := NewBatchGarbler(rand.New(rand.NewSource(seed)), 1)
	if err != nil {
		t.Fatal(err)
	}
	bg.Grow(10)
	for w := uint32(2); w <= 5; w++ {
		if _, err := g.AssignInput(w); err != nil {
			t.Fatal(err)
		}
		if err := bg.AssignInput(w); err != nil {
			t.Fatal(err)
		}
	}

	pool := NewSharedPool(sched.Default(), 1)
	for li, lv := range levels {
		var single []byte
		for _, gate := range append(append([]circuit.Gate{}, lv.ands...), lv.frees...) {
			if single, err = g.Garble(gate, single); err != nil {
				t.Fatalf("level %d single: %v", li, err)
			}
		}
		batched := make([]byte, len(lv.ands)*TableSize)
		if err := bg.GarbleLevel(lv.ands, lv.frees, lv.gidBase, batched, pool); err != nil {
			t.Fatalf("level %d batched: %v", li, err)
		}
		if !bytes.Equal(single, batched) {
			t.Fatalf("level %d: B=1 batched tables differ from the single path", li)
		}
	}
	for w := uint32(0); w <= 9; w++ {
		sl, err := g.ZeroLabel(w)
		if err != nil {
			t.Fatalf("wire %d single: %v", w, err)
		}
		bl, err := bg.ZeroLabel(w, 0)
		if err != nil {
			t.Fatalf("wire %d batched: %v", w, err)
		}
		if sl != bl {
			t.Fatalf("wire %d: B=1 batched zero-label differs from the single path", w)
		}
	}
	if g.R != bg.R[0] {
		t.Fatal("B=1 batched delta differs from the single path")
	}
	// The const-label payload must be the single path's frame.
	lf, lt, err := g.ConstLabels()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := bg.AppendConstLabels(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, lf[:]...), lt[:]...); !bytes.Equal(payload, want) {
		t.Fatal("B=1 const-label payload differs from the single path")
	}
}

// TestBatchGarbleEvaluateCorrectness round-trips a B=3 batch through
// GarbleLevel and EvaluateLevel with per-sample input bits, checking
// every sample's output labels decode to the plaintext circuit — and
// that the table bytes are identical for 1 and 4 workers (the batch
// engine's determinism contract).
func TestBatchGarbleEvaluateCorrectness(t *testing.T) {
	const b = 3
	const seed = 4402
	levels := vecTestLevels()
	rng := rand.New(rand.NewSource(seed))
	bits := make(map[uint32][b]bool)
	for w := uint32(2); w <= 5; w++ {
		var v [b]bool
		for s := range v {
			v[s] = rng.Intn(2) == 1
		}
		bits[w] = v
	}

	garble := func(workers int) (*BatchGarbler, [][]byte) {
		bg, err := NewBatchGarbler(rand.New(rand.NewSource(seed)), b)
		if err != nil {
			t.Fatal(err)
		}
		bg.Grow(10)
		for w := uint32(2); w <= 5; w++ {
			if err := bg.AssignInput(w); err != nil {
				t.Fatal(err)
			}
		}
		pool := NewSharedPool(sched.Default(), workers)
		var tables [][]byte
		for li, lv := range levels {
			tab := make([]byte, len(lv.ands)*b*TableSize)
			if err := bg.GarbleLevel(lv.ands, lv.frees, lv.gidBase, tab, pool); err != nil {
				t.Fatalf("workers=%d level %d: %v", workers, li, err)
			}
			tables = append(tables, tab)
		}
		return bg, tables
	}

	bg, tables := garble(1)
	_, tables4 := garble(4)
	for li := range tables {
		if !bytes.Equal(tables[li], tables4[li]) {
			t.Fatalf("level %d: tables differ between 1 and 4 workers", li)
		}
	}
	if bg.ANDGates != 2*b || bg.FreeGates != 2*b {
		t.Fatalf("gate-instance counters = %d AND / %d free, want %d / %d",
			bg.ANDGates, bg.FreeGates, 2*b, 2*b)
	}

	ev, err := NewBatchEvaluator(b)
	if err != nil {
		t.Fatal(err)
	}
	ev.Grow(10)
	for s := 0; s < b; s++ {
		lf, err := bg.ActiveLabel(circuit.WFalse, s, false)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := bg.ActiveLabel(circuit.WTrue, s, true)
		if err != nil {
			t.Fatal(err)
		}
		ev.SetLabel(circuit.WFalse, s, lf)
		ev.SetLabel(circuit.WTrue, s, lt)
		for w := uint32(2); w <= 5; w++ {
			l, err := bg.ActiveLabel(w, s, bits[w][s])
			if err != nil {
				t.Fatal(err)
			}
			ev.SetLabel(w, s, l)
		}
	}
	pool := NewSharedPool(sched.Default(), 2)
	for li, lv := range levels {
		if err := ev.EvaluateLevel(lv.ands, lv.frees, lv.gidBase, tables[li], pool); err != nil {
			t.Fatalf("evaluate level %d: %v", li, err)
		}
	}

	for s := 0; s < b; s++ {
		and1 := bits[2][s] && bits[3][s]
		xor1 := bits[4][s] != bits[5][s]
		want := map[uint32]bool{
			6: and1,
			7: xor1,
			8: and1 && xor1,
			9: !and1, // INV carries the label; semantics flip at decode
		}
		for w, wb := range want {
			got, err := ev.Label(w, s)
			if err != nil {
				t.Fatalf("sample %d wire %d: %v", s, w, err)
			}
			zero, err := bg.ZeroLabel(w, s)
			if err != nil {
				t.Fatal(err)
			}
			// The INV output's evaluator label equals its input's; the
			// garbler's zero-label for the wire is input-zero ⊕ R, so the
			// decode below already accounts for the flip.
			var bit bool
			switch got {
			case zero:
				bit = false
			case zero.XOR(bg.R[s]):
				bit = true
			default:
				t.Fatalf("sample %d wire %d: label fails authentication", s, w)
			}
			if bit != wb {
				t.Fatalf("sample %d wire %d: decoded %v, want %v", s, w, bit, wb)
			}
		}
	}
}
