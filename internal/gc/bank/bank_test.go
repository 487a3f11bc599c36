package bank

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
)

// testTape builds a small but non-trivial recycled netlist: two input
// batches (both parties), a mix of gate kinds across several levels, and
// drops — enough to exercise multi-step schedules with PreDrops.
func testTape(t *testing.T, seed int64) (*circuit.Tape, int, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tape := circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	var live []uint32
	add := func(w uint32) {
		if w != circuit.WFalse && w != circuit.WTrue {
			live = append(live, w)
		}
	}
	nG, nE := 4, 3
	for _, w := range b.Inputs(circuit.Garbler, nG) {
		add(w)
	}
	for _, w := range b.Inputs(circuit.Evaluator, nE) {
		add(w)
	}
	pick := func() uint32 { return live[r.Intn(len(live))] }
	for i := 0; i < 80; i++ {
		switch r.Intn(4) {
		case 0:
			add(b.XOR(pick(), pick()))
		case 1, 2:
			add(b.AND(pick(), pick()))
		default:
			add(b.INV(pick()))
		}
	}
	b.Outputs(live[len(live)-4], live[len(live)-3], live[len(live)-2], live[len(live)-1])
	return tape, nG, nE
}

func testSchedule(t *testing.T, seed int64) *circuit.Schedule {
	t.Helper()
	tape, _, _ := testTape(t, seed)
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// plainEval replays the tape in plaintext — the reference the garbled
// evaluation of a banked execution must match.
type plainEval struct {
	vals map[uint32]bool
	gb   []bool
	eb   []bool
	out  []bool
}

func (s *plainEval) OnInputs(p circuit.Party, ws []uint32) error {
	src := &s.gb
	if p == circuit.Evaluator {
		src = &s.eb
	}
	for _, w := range ws {
		s.vals[w] = (*src)[0]
		*src = (*src)[1:]
	}
	return nil
}

func (s *plainEval) OnGate(g circuit.Gate) error {
	switch g.Op {
	case circuit.XOR:
		s.vals[g.Out] = s.vals[g.A] != s.vals[g.B]
	case circuit.AND:
		s.vals[g.Out] = s.vals[g.A] && s.vals[g.B]
	case circuit.INV:
		s.vals[g.Out] = !s.vals[g.A]
	}
	return nil
}

func (s *plainEval) OnOutputs(ws []uint32) error {
	for _, w := range ws {
		s.out = append(s.out, s.vals[w])
	}
	return nil
}

func (s *plainEval) OnDrop(w uint32) error { return nil }

// evalExecution runs a banked execution through a B=1 gc.BatchEvaluator
// against the schedule, selecting input labels from the banked
// zero-labels and the given bits, and decodes the outputs against
// OutZero — proving the banked material is a complete, valid garbling.
func evalExecution(t *testing.T, sched *circuit.Schedule, ex *Execution, gBits, eBits []bool) []bool {
	t.Helper()
	e, err := gc.NewBatchEvaluator(1)
	if err != nil {
		t.Fatal(err)
	}
	e.SetLabel(circuit.WFalse, 0, ex.ConstFalse)
	e.SetLabel(circuit.WTrue, 0, ex.ConstTrue)
	e.Grow(sched.NumWires)
	pool := gc.NewPool(1)
	inOrd, tabOrd := 0, 0
	gCur, eCur := gBits, eBits
	var outs []bool
	for si := range sched.Steps {
		st := &sched.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			zs := ex.InputZero[inOrd]
			inOrd++
			bits := &gCur
			if st.Party == circuit.Evaluator {
				bits = &eCur
			}
			for i, w := range st.Wires {
				l := zs[i]
				if (*bits)[0] {
					l = l.XOR(ex.R)
				}
				*bits = (*bits)[1:]
				e.SetLabel(w, 0, l)
			}
		case circuit.StepOutputs:
			for oi, w := range st.Wires {
				l, err := e.Label(w, 0)
				if err != nil {
					t.Fatal(err)
				}
				switch l {
				case ex.OutZero[len(outs)]:
					outs = append(outs, false)
				case ex.OutZero[len(outs)].XOR(ex.R):
					outs = append(outs, true)
				default:
					t.Fatalf("output %d label failed authentication", oi)
				}
			}
		case circuit.StepLevels:
			run := ex.Tables[tabOrd]
			tabOrd++
			off := 0
			for li := st.First; li < st.First+st.N; li++ {
				lv := &sched.Levels[li]
				ands, frees := sched.LevelGates(lv)
				need := lv.ANDs * gc.TableSize
				if err := e.EvaluateLevel(ands, frees, lv.GIDBase, run[off:off+need], pool); err != nil {
					t.Fatal(err)
				}
				off += need
			}
		}
	}
	return outs
}

// TestBankExecutionCorrectness: a banked execution evaluates to the
// plaintext reference for random inputs — the garble-ahead walk produces
// a complete, correct garbling.
func TestBankExecutionCorrectness(t *testing.T) {
	tape, nG, nE := testTape(t, 41)
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	b := New(sched, rand.New(rand.NewSource(7)), 1, Config{Depth: 2})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	for k := 0; k < 2; k++ {
		gBits := make([]bool, nG)
		eBits := make([]bool, nE)
		for i := range gBits {
			gBits[i] = r.Intn(2) == 1
		}
		for i := range eBits {
			eBits[i] = r.Intn(2) == 1
		}
		ref := &plainEval{vals: map[uint32]bool{circuit.WFalse: false, circuit.WTrue: true},
			gb: append([]bool{}, gBits...), eb: append([]bool{}, eBits...)}
		if err := tape.Replay(ref); err != nil {
			t.Fatal(err)
		}
		ex, err := b.Take()
		if err != nil {
			t.Fatal(err)
		}
		if ex == nil {
			t.Fatal("bank empty after fill")
		}
		got := evalExecution(t, sched, ex, gBits, eBits)
		for i := range ref.out {
			if got[i] != ref.out[i] {
				t.Fatalf("infer %d output %d: garbled %v, plaintext %v", k, i, got[i], ref.out[i])
			}
		}
		ex.Release()
	}
}

// TestBankDeterminism: two banks over the same schedule with identically
// seeded rngs garble byte-identical executions — the conformance property
// core relies on (a banked stream equals live garbling from the same rng
// state).
func TestBankDeterminism(t *testing.T) {
	sched := testSchedule(t, 42)
	b1 := New(sched, rand.New(rand.NewSource(5)), 1, Config{Depth: 3})
	b2 := New(sched, rand.New(rand.NewSource(5)), 4, Config{Depth: 3})
	if err := b1.Fill(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Fill(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		x1, err := b1.Take()
		if err != nil {
			t.Fatal(err)
		}
		x2, err := b2.Take()
		if err != nil {
			t.Fatal(err)
		}
		if x1.R != x2.R || x1.ConstFalse != x2.ConstFalse || x1.ConstTrue != x2.ConstTrue {
			t.Fatalf("exec %d: deltas/const labels differ across workers", k)
		}
		if len(x1.Tables) != len(x2.Tables) {
			t.Fatalf("exec %d: table run counts differ", k)
		}
		for i := range x1.Tables {
			if !bytes.Equal(x1.Tables[i], x2.Tables[i]) {
				t.Fatalf("exec %d run %d: table bytes differ between workers=1 and workers=4", k, i)
			}
		}
		for i := range x1.OutZero {
			if x1.OutZero[i] != x2.OutZero[i] {
				t.Fatalf("exec %d: output zero-label %d differs", k, i)
			}
		}
	}
}

// TestBankSingleUse: sequence numbers are strictly monotone, a taken
// execution is gone for good, and Release zeroes the secret stream
// material (tables, input labels) while keeping what output
// authentication needs.
func TestBankSingleUse(t *testing.T) {
	sched := testSchedule(t, 43)
	b := New(sched, rand.New(rand.NewSource(11)), 1, Config{Depth: 3})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for k := 0; k < 3; k++ {
		ex, err := b.Take()
		if err != nil {
			t.Fatal(err)
		}
		if ex.Seq() <= last {
			t.Fatalf("take %d: seq %d not after %d", k, ex.Seq(), last)
		}
		last = ex.Seq()
		if b.Seq() != ex.Seq()+1 {
			t.Fatalf("bank seq %d after consuming %d", b.Seq(), ex.Seq())
		}
		tabs := ex.Tables
		ex.Release()
		if ex.Tables != nil || ex.InputZero != nil {
			t.Fatal("Release kept stream material")
		}
		for _, run := range tabs {
			for _, c := range run {
				if c != 0 {
					t.Fatal("Release left table bytes unzeroed")
				}
			}
		}
		if len(ex.OutZero) == 0 {
			t.Fatal("Release dropped output zero-labels")
		}
	}
	// Drained: the next take is a miss, not a block and not a reuse.
	ex, err := b.Take()
	if err != nil || ex != nil {
		t.Fatalf("empty bank Take = (%v, %v), want (nil, nil)", ex, err)
	}
	st := b.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Banked != 3 {
		t.Fatalf("stats = %+v, want 3 hits / 1 miss / 3 banked", st)
	}
}

// TestBankTakeN: all-or-nothing — a bank holding fewer than n executions
// takes none of them and the available ones remain consumable.
func TestBankTakeN(t *testing.T) {
	sched := testSchedule(t, 44)
	b := New(sched, rand.New(rand.NewSource(13)), 1, Config{Depth: 2})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	if exs, err := b.TakeN(3); err != nil || exs != nil {
		t.Fatalf("TakeN(3) on depth-2 bank = (%v, %v), want miss", exs, err)
	}
	exs, err := b.TakeN(2)
	if err != nil || len(exs) != 2 {
		t.Fatalf("TakeN(2) = (%v, %v)", exs, err)
	}
	if exs[0].Seq() != 0 || exs[1].Seq() != 1 {
		t.Fatalf("TakeN seqs %d,%d, want 0,1", exs[0].Seq(), exs[1].Seq())
	}
	if b.Available() != 0 {
		t.Fatalf("%d executions left after TakeN(2)", b.Available())
	}
}

// TestBankSpill: spilled executions round-trip — a SpillDir bank hands
// out byte-identical tables to an in-memory bank from the same seed, the
// spill files are mode 0600, and they are gone after the take.
func TestBankSpill(t *testing.T) {
	sched := testSchedule(t, 45)
	dir := t.TempDir()
	bm := New(sched, rand.New(rand.NewSource(17)), 1, Config{Depth: 2})
	bs := New(sched, rand.New(rand.NewSource(17)), 1, Config{Depth: 2, SpillDir: dir})
	if err := bm.Fill(); err != nil {
		t.Fatal(err)
	}
	if err := bs.Fill(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("%d spill files after fill, want 2", len(ents))
	}
	fi, err := os.Stat(filepath.Join(dir, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("spill file mode %v, want 0600", fi.Mode().Perm())
	}
	for k := 0; k < 2; k++ {
		xm, err := bm.Take()
		if err != nil {
			t.Fatal(err)
		}
		xs, err := bs.Take()
		if err != nil {
			t.Fatal(err)
		}
		if len(xm.Tables) != len(xs.Tables) {
			t.Fatalf("exec %d: run counts differ", k)
		}
		for i := range xm.Tables {
			if !bytes.Equal(xm.Tables[i], xs.Tables[i]) {
				t.Fatalf("exec %d run %d: spilled tables differ from in-memory", k, i)
			}
		}
	}
	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill files remain after consuming the bank", len(ents))
	}
	if st := bs.Stats(); st.Spills != 2 {
		t.Fatalf("spill stats = %+v, want 2 spills", st)
	}
}

// TestBankBackgroundRefill: a take that leaves the bank below low water
// regenerates it to depth on the helper goroutine.
func TestBankBackgroundRefill(t *testing.T) {
	sched := testSchedule(t, 46)
	// crand-style concurrency-safe rng not needed: refills serialize on
	// fillMu and the foreground never garbles in this test.
	b := New(sched, rand.New(rand.NewSource(19)), 1, Config{Depth: 4, LowWater: 3, Background: true})
	if err := b.Fill(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		if ex, err := b.Take(); err != nil || ex == nil {
			t.Fatalf("take %d: (%v, %v)", k, ex, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.Available() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("background refill never restored depth (available=%d)", b.Available())
		}
		time.Sleep(time.Millisecond)
	}
	if st := b.Stats(); st.Refills < 2 {
		t.Fatalf("stats = %+v, want the initial fill plus a background refill", st)
	}
	b.Close()
	if ex, _ := b.Take(); ex != nil {
		t.Fatal("closed bank still serving executions")
	}
}
