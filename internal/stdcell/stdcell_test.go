package stdcell

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
)

// buildBinOp materializes a circuit computing op over two garbler-input
// words of the format's width.
func buildBinOp(t *testing.T, f fixed.Format, op func(b *circuit.Builder, x, y Word) Word) *circuit.Circuit {
	t.Helper()
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(op(b, x, y)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func evalBin(t *testing.T, c *circuit.Circuit, f fixed.Format, a, b fixed.Num) fixed.Num {
	t.Helper()
	in := append(a.Bits(), b.Bits()...)
	out, err := c.Eval(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.FromBits(out)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func evalBits(t *testing.T, c *circuit.Circuit, in []bool) []bool {
	t.Helper()
	out, err := c.Eval(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAddMatchesFixed(t *testing.T) {
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word { return Add(b, x, y) })
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		return evalBin(t, c, f, x, y).Raw() == x.Add(y).Raw()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSubNegMatchFixed(t *testing.T) {
	f := fixed.Default
	cs := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word { return Sub(b, x, y) })
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		return evalBin(t, cs, f, x, y).Raw() == x.Sub(y).Raw()
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}

	cn, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(Neg(b, x)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkNeg := func(a int64) bool {
		x := f.FromRaw(a)
		out := evalBits(t, cn, x.Bits())
		n, _ := f.FromBits(out)
		return n.Raw() == x.Neg().Raw()
	}
	if err := quick.Check(checkNeg, nil); err != nil {
		t.Error(err)
	}
}

func TestAddGateCount(t *testing.T) {
	// An n-bit wrapping adder must cost exactly n-1 non-XOR gates.
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word { return Add(b, x, y) })
	if s := c.Stats(); s.AND != int64(f.Bits()-1) {
		t.Errorf("adder non-XOR = %d, want %d", s.AND, f.Bits()-1)
	}
}

func TestMulFixedMatchesFixed(t *testing.T) {
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word {
		return MulFixed(b, x, y, f.FracBits)
	})
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		return evalBin(t, c, f, x, y).Raw() == x.Mul(y).Raw()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMulFixedApproxError(t *testing.T) {
	f := fixed.Default
	guard := 4
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word {
		return MulFixedApprox(b, x, y, f.FracBits, guard)
	})
	rng := rand.New(rand.NewSource(7))
	worst := int64(0)
	for i := 0; i < 300; i++ {
		// Stay in a range where the exact product doesn't wrap, so the
		// error bound is meaningful.
		x := f.FromFloat(rng.Float64()*4 - 2)
		y := f.FromFloat(rng.Float64()*4 - 2)
		got := evalBin(t, c, f, x, y).Raw()
		want := x.Mul(y).Raw()
		d := got - want
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	// Truncating partial products below 2^(frac-guard) loses at most the
	// sum of the dropped rows: bounded by ~(n+frac) ULPs of the cut line.
	if worst > 64 {
		t.Errorf("approx multiplier worst error = %d ULP, want small", worst)
	}
	// And it must actually be cheaper than the exact multiplier.
	exact := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word {
		return MulFixed(b, x, y, f.FracBits)
	})
	if ca, ce := c.Stats().AND, exact.Stats().AND; ca >= ce {
		t.Errorf("approx multiplier not cheaper: %d vs %d non-XOR", ca, ce)
	}
}

func TestDivFixedMatchesFixed(t *testing.T) {
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word {
		return DivFixed(b, x, y, f.FracBits)
	})
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		return evalBin(t, c, f, x, y).Raw() == x.Div(y).Raw()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroCircuitSaturates(t *testing.T) {
	f := fixed.Default
	c := buildBinOp(t, f, func(b *circuit.Builder, x, y Word) Word {
		return DivFixed(b, x, y, f.FracBits)
	})
	pos := evalBin(t, c, f, f.FromFloat(1), f.Zero())
	if pos.Raw() != f.MaxRaw() {
		t.Errorf("1/0 circuit = %d, want Max", pos.Raw())
	}
	neg := evalBin(t, c, f, f.FromFloat(-1), f.Zero())
	if neg.Raw() != f.MinRaw() {
		t.Errorf("-1/0 circuit = %d, want Min", neg.Raw())
	}
}

func TestDivUSmallExhaustive(t *testing.T) {
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, 6)
		y := Input(b, circuit.Garbler, 6)
		b.Outputs(DivU(b, x, y)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	toBits := func(v int64, n int) []bool {
		out := make([]bool, n)
		for i := 0; i < n; i++ {
			out[i] = (v>>uint(i))&1 == 1
		}
		return out
	}
	fromBits := func(bs []bool) int64 {
		var v int64
		for i, b := range bs {
			if b {
				v |= 1 << uint(i)
			}
		}
		return v
	}
	for a := int64(0); a < 64; a += 3 {
		for bb := int64(1); bb < 64; bb += 5 {
			in := append(toBits(a, 6), toBits(bb, 6)...)
			got := fromBits(evalBits(t, c, in))
			if got != a/bb {
				t.Fatalf("DivU(%d,%d) = %d, want %d", a, bb, got, a/bb)
			}
		}
	}
}

func TestComparisons(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(GT(b, x, y), GE(b, x, y), LT(b, x, y), EQ(b, x, y), IsZero(b, x))
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(a, bb int64) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		out := evalBits(t, c, append(x.Bits(), y.Bits()...))
		return out[0] == (x.Cmp(y) > 0) &&
			out[1] == (x.Cmp(y) >= 0) &&
			out[2] == (x.Cmp(y) < 0) &&
			out[3] == (x.Cmp(y) == 0) &&
			out[4] == (x.Raw() == 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
	// Equality must hold for identical raws too (quick rarely hits it).
	x := f.FromFloat(1.25)
	out := evalBits(t, c, append(x.Bits(), x.Bits()...))
	if out[0] || !out[1] || out[2] || !out[3] {
		t.Errorf("self-comparison wrong: %v", out)
	}
}

func TestMuxMaxMinAbsReLU(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		s := Input(b, circuit.Garbler, 1)
		b.Outputs(Mux(b, s[0], x, y)...)
		b.Outputs(Max(b, x, y)...)
		b.Outputs(Min(b, x, y)...)
		b.Outputs(Abs(b, x)...)
		b.Outputs(ReLU(b, x)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.Bits()
	check := func(a, bb int64, sel bool) bool {
		x, y := f.FromRaw(a), f.FromRaw(bb)
		in := append(append(x.Bits(), y.Bits()...), sel)
		out := evalBits(t, c, in)
		word := func(k int) fixed.Num {
			v, _ := f.FromBits(out[k*n : (k+1)*n])
			return v
		}
		mux := word(0)
		if sel && mux.Raw() != x.Raw() || !sel && mux.Raw() != y.Raw() {
			return false
		}
		wantMax, wantMin := x, y
		if x.Cmp(y) < 0 {
			wantMax, wantMin = y, x
		}
		return word(1).Raw() == wantMax.Raw() &&
			word(2).Raw() == wantMin.Raw() &&
			word(3).Raw() == x.Abs().Raw() &&
			word(4).Raw() == x.ReLU().Raw()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReLUGateCount(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(ReLU(b, x)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.AND != int64(f.Bits()-1) {
		t.Errorf("ReLU non-XOR = %d, want %d (paper Table 3)", s.AND, f.Bits()-1)
	}
}

func TestShifts(t *testing.T) {
	f := fixed.Default
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(ShlConst(b, x, 2)...)
		b.Outputs(ShrArith(b, x, 2)...)
		b.Outputs(ShrLogic(b, x, 2)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Total() != 0 {
		t.Errorf("shifts must be free, got %v", s)
	}
	n := f.Bits()
	check := func(a int64) bool {
		x := f.FromRaw(a)
		out := evalBits(t, c, x.Bits())
		shl, _ := f.FromBits(out[:n])
		shr, _ := f.FromBits(out[n : 2*n])
		srl, _ := f.FromBits(out[2*n:])
		wantSrl := f.Wrap(int64(uint64(uint16(x.Raw())) >> 2))
		return shl.Raw() == x.Shl(2).Raw() && shr.Raw() == x.Shr(2).Raw() && srl.Raw() == wantSrl
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSignZeroExtend(t *testing.T) {
	f := fixed.Default
	wide := fixed.Format{IntBits: 7, FracBits: 12}
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(SignExtend(b, x, wide.Bits())...)
		b.Outputs(ZeroExtend(b, x, wide.Bits())...)
		b.Outputs(SignExtend(b, x, 8)...) // truncation path
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(a int64) bool {
		x := f.FromRaw(a)
		out := evalBits(t, c, x.Bits())
		se, _ := wide.FromBits(out[:wide.Bits()])
		ze, _ := wide.FromBits(out[wide.Bits() : 2*wide.Bits()])
		if se.Raw() != x.Raw() {
			return false
		}
		return ze.Raw() == int64(uint16(x.Raw()))
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLUT(t *testing.T) {
	// 6-bit identity-squared table, 12-bit output.
	table := make([]int64, 64)
	for i := range table {
		table[i] = int64(i * i)
	}
	c, err := circuit.Build(func(b *circuit.Builder) {
		idx := Input(b, circuit.Garbler, 6)
		b.Outputs(LUT(b, idx, 12, table)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		in := make([]bool, 6)
		for k := 0; k < 6; k++ {
			in[k] = (i>>uint(k))&1 == 1
		}
		out := evalBits(t, c, in)
		var got int64
		for k, bb := range out {
			if bb {
				got |= 1 << uint(k)
			}
		}
		if got != table[i] {
			t.Fatalf("LUT[%d] = %d, want %d", i, got, table[i])
		}
	}
}

func TestLUTWrongSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("LUT with wrong table size should panic")
		}
	}()
	_, _ = circuit.Build(func(b *circuit.Builder) {
		idx := Input(b, circuit.Garbler, 3)
		LUT(b, idx, 4, make([]int64, 7))
	})
}

func TestArgMax(t *testing.T) {
	f := fixed.Default
	const k = 5
	c, err := circuit.Build(func(b *circuit.Builder) {
		vals := make([]Word, k)
		for i := range vals {
			vals[i] = Input(b, circuit.Garbler, f.Bits())
		}
		b.Outputs(ArgMax(b, vals)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		var in []bool
		vals := make([]fixed.Num, k)
		for i := range vals {
			vals[i] = f.FromFloat(rng.Float64()*16 - 8)
			in = append(in, vals[i].Bits()...)
		}
		out := evalBits(t, c, in)
		var got int
		for i, bb := range out {
			if bb {
				got |= 1 << uint(i)
			}
		}
		want := 0
		for i := 1; i < k; i++ {
			if vals[i].Cmp(vals[want]) > 0 {
				want = i
			}
		}
		if got != want {
			t.Fatalf("trial %d: ArgMax = %d, want %d (vals %v)", trial, got, want, vals)
		}
	}
}

func TestMaxPoolMeanPool(t *testing.T) {
	f := fixed.Default
	const k = 4
	c, err := circuit.Build(func(b *circuit.Builder) {
		w := make([]Word, k)
		for i := range w {
			w[i] = Input(b, circuit.Garbler, f.Bits())
		}
		b.Outputs(MaxPool(b, w)...)
		b.Outputs(MeanPool(b, w)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := f.Bits()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var in []bool
		vals := make([]fixed.Num, k)
		var sum int64
		maxv := int64(-1 << 62)
		for i := range vals {
			vals[i] = f.FromFloat(rng.Float64()*8 - 4)
			in = append(in, vals[i].Bits()...)
			sum += vals[i].Raw()
			if vals[i].Raw() > maxv {
				maxv = vals[i].Raw()
			}
		}
		out := evalBits(t, c, in)
		gotMax, _ := f.FromBits(out[:n])
		gotMean, _ := f.FromBits(out[n:])
		if gotMax.Raw() != maxv {
			t.Fatalf("MaxPool = %d, want %d", gotMax.Raw(), maxv)
		}
		wantMean := f.Wrap(sum >> 2)
		if gotMean.Raw() != wantMean {
			t.Fatalf("MeanPool = %d, want %d", gotMean.Raw(), wantMean)
		}
	}
}

func TestMeanPoolRequiresPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MeanPool with k=3 should panic")
		}
	}()
	_, _ = circuit.Build(func(b *circuit.Builder) {
		w := []Word{
			Input(b, circuit.Garbler, 8),
			Input(b, circuit.Garbler, 8),
			Input(b, circuit.Garbler, 8),
		}
		MeanPool(b, w)
	})
}

func TestDotMatVec(t *testing.T) {
	f := fixed.Default
	const m, n = 3, 2
	c, err := circuit.Build(func(b *circuit.Builder) {
		x := make([]Word, m)
		for i := range x {
			x[i] = Input(b, circuit.Garbler, f.Bits())
		}
		w := make([]Word, m*n)
		for i := range w {
			w[i] = Input(b, circuit.Evaluator, f.Bits())
		}
		for _, o := range MatVec(b, w, x, n, m, f.FracBits) {
			b.Outputs(o...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		xs := make([]fixed.Num, m)
		var gIn []bool
		for i := range xs {
			xs[i] = f.FromFloat(rng.Float64()*2 - 1)
			gIn = append(gIn, xs[i].Bits()...)
		}
		ws := make([]fixed.Num, m*n)
		var eIn []bool
		for i := range ws {
			ws[i] = f.FromFloat(rng.Float64()*2 - 1)
			eIn = append(eIn, ws[i].Bits()...)
		}
		out, err := c.Eval(gIn, eIn)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			want := f.Zero()
			for j := 0; j < m; j++ {
				want = want.Add(xs[j].Mul(ws[r*m+j]))
			}
			got, _ := f.FromBits(out[r*f.Bits() : (r+1)*f.Bits()])
			if got.Raw() != want.Raw() {
				t.Fatalf("MatVec row %d = %d, want %d", r, got.Raw(), want.Raw())
			}
		}
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched widths should panic")
		}
	}()
	_, _ = circuit.Build(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, 8)
		y := Input(b, circuit.Garbler, 4)
		Add(b, x, y)
	})
}

func TestGateCountTable3Style(t *testing.T) {
	// Regression guard on the component costs we report in Table 3: these
	// are this implementation's counts (not the paper's); the test pins
	// them so accidental regressions in the builder show up.
	f := fixed.Default
	muls, err := circuit.Count(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(MulFixed(b, x, y, f.FracBits)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if muls.AND != 480 {
		t.Errorf("MulFixed non-XOR = %d, want 480", muls.AND)
	}
	mvm, err := circuit.Count(func(b *circuit.Builder) {
		x := make([]Word, 8)
		for i := range x {
			x[i] = Input(b, circuit.Garbler, f.Bits())
		}
		w := make([]Word, 32)
		for i := range w {
			w[i] = Input(b, circuit.Evaluator, f.Bits())
		}
		for _, o := range MatVec(b, w, x, 4, 8, f.FracBits) {
			b.Outputs(o...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if mvm.AND != 15780 {
		t.Errorf("MVM 1x8 * 8x4 non-XOR = %d, want 15780", mvm.AND)
	}
	divs, err := circuit.Count(func(b *circuit.Builder) {
		x := Input(b, circuit.Garbler, f.Bits())
		y := Input(b, circuit.Garbler, f.Bits())
		b.Outputs(DivFixed(b, x, y, f.FracBits)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	if divs.AND == 0 || divs.AND > 3000 {
		t.Errorf("DivFixed non-XOR = %d, outside sane range", divs.AND)
	}
}
