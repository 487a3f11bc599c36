package stdcell

import (
	"fmt"
	"math/rand"
	"testing"

	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
)

// evalLanes evaluates c on 64 input vectors at once: in[k] carries garbler
// input k's bit for every lane, and the result does the same per output.
func evalLanes(c *circuit.Circuit, in []uint64) []uint64 {
	vals := make([]uint64, c.NWires)
	vals[circuit.WTrue] = ^uint64(0)
	for i, w := range c.GarblerInputs {
		vals[w] = in[i]
	}
	for _, g := range c.Gates {
		switch g.Op {
		case circuit.XOR:
			vals[g.Out] = vals[g.A] ^ vals[g.B]
		case circuit.AND:
			vals[g.Out] = vals[g.A] & vals[g.B]
		case circuit.INV:
			vals[g.Out] = ^vals[g.A]
		}
	}
	out := make([]uint64, len(c.Outputs))
	for i, w := range c.Outputs {
		out[i] = vals[w]
	}
	return out
}

// mulOp is a multiplier under test with its software reference.
type mulOp struct {
	name string
	mul  func(b *circuit.Builder, x, y Word, frac int) Word
	want func(x, y fixed.Num) int64
}

var mulOps = []mulOp{
	{
		name: "MulWrap",
		mul:  func(b *circuit.Builder, x, y Word, _ int) Word { return MulWrap(b, x, y) },
		want: func(x, y fixed.Num) int64 { return x.Format().Wrap(x.Raw() * y.Raw()) },
	},
	{
		name: "MulFixed",
		mul:  MulFixed,
		want: func(x, y fixed.Num) int64 { return x.Mul(y).Raw() },
	},
}

// checkMul builds op over operands shaped by the flags and compares every
// pair against the reference. With nonnegX, x's sign wire is the constant
// zero (the post-ReLU shape netgen.FastCount probes) and pairs with a < 0
// are skipped. With constY, y is materialized as a constant word and one
// circuit is built per distinct y.
func checkMul(t *testing.T, f fixed.Format, op mulOp, pairs [][2]int64, nonnegX, constY bool) {
	t.Helper()
	n := f.Bits()
	nx := n // garbler input bits of x; y's follow
	if nonnegX {
		nx = n - 1
	}
	groups := [][][2]int64{pairs}
	if constY {
		groups = nil
		idx := map[int64]int{}
		for _, p := range pairs {
			i, ok := idx[p[1]]
			if !ok {
				i = len(groups)
				idx[p[1]] = i
				groups = append(groups, nil)
			}
			groups[i] = append(groups[i], p)
		}
	}
	for _, group := range groups {
		c, err := circuit.Build(func(b *circuit.Builder) {
			var x, y Word
			if nonnegX {
				x = append(Input(b, circuit.Garbler, nx), circuit.WFalse)
			} else {
				x = Input(b, circuit.Garbler, n)
			}
			if constY {
				y = Const(b, n, group[0][1])
			} else {
				y = Input(b, circuit.Garbler, n)
			}
			b.Outputs(op.mul(b, x, y, f.FracBits)...)
		})
		if err != nil {
			t.Fatal(err)
		}
		var todo [][2]int64
		for _, p := range group {
			if !nonnegX || p[0] >= 0 {
				todo = append(todo, p)
			}
		}
		for len(todo) > 0 {
			chunk := todo
			if len(chunk) > 64 {
				chunk = chunk[:64]
			}
			todo = todo[len(chunk):]
			in := make([]uint64, len(c.GarblerInputs))
			for lane, p := range chunk {
				for k := range in {
					v, bit := p[0], k
					if k >= nx {
						v, bit = p[1], k-nx
					}
					in[k] |= uint64(v>>uint(bit)&1) << uint(lane)
				}
			}
			out := evalLanes(c, in)
			for lane, p := range chunk {
				var raw int64
				for k, o := range out {
					raw |= int64(o>>uint(lane)&1) << uint(k)
				}
				x, y := f.FromRaw(p[0]), f.FromRaw(p[1])
				if got, want := f.Wrap(raw), op.want(x, y); got != want {
					t.Fatalf("%s(%d, %d) in Q%d.%d (nonnegX=%v constY=%v) = %d, want %d",
						op.name, p[0], p[1], f.IntBits, f.FracBits, nonnegX, constY, got, want)
				}
			}
		}
	}
}

// edges returns the format's boundary raws: min, min+1, -1, 0, 1, max-1,
// max (deduplicated for tiny formats).
func edges(f fixed.Format) []int64 {
	var out []int64
	seen := map[int64]bool{}
	for _, v := range []int64{f.MinRaw(), f.MinRaw() + 1, -1, 0, 1, f.MaxRaw() - 1, f.MaxRaw()} {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestMulExact checks MulWrap and MulFixed bit-for-bit against fixed
// arithmetic: exhaustively for every format of width 2–8, and on
// edge×edge plus seeded random pairs for the 16-bit formats. Each case
// also runs with a constant-zero sign on x and with a constant y, the
// operand shapes whose folded gates change the column contents.
func TestMulExact(t *testing.T) {
	type mulCase struct {
		f         fixed.Format
		pairs     [][2]int64
		constPair [][2]int64 // pairs for the constant-y shape
	}
	var cases []mulCase
	for n := 2; n <= 8; n++ {
		for frac := 0; frac < n; frac++ {
			f := fixed.Format{IntBits: n - 1 - frac, FracBits: frac}
			var all [][2]int64
			for a := f.MinRaw(); a <= f.MaxRaw(); a++ {
				for b := f.MinRaw(); b <= f.MaxRaw(); b++ {
					all = append(all, [2]int64{a, b})
				}
			}
			cases = append(cases, mulCase{f, all, all})
		}
	}
	rng := rand.New(rand.NewSource(12))
	for _, f := range []fixed.Format{{IntBits: 3, FracBits: 12}, {IntBits: 7, FracBits: 8}, {IntBits: 0, FracBits: 15}, {IntBits: 15, FracBits: 0}} {
		var pairs, constPairs [][2]int64
		for _, a := range edges(f) {
			for _, b := range edges(f) {
				pairs = append(pairs, [2]int64{a, b})
			}
		}
		span := f.MaxRaw() - f.MinRaw() + 1
		random := func() int64 { return f.MinRaw() + rng.Int63n(span) }
		for i := 0; i < 20000; i++ {
			pairs = append(pairs, [2]int64{random(), random()})
		}
		// Constant y: every edge and a few random constants, each against
		// the edges and 256 random x.
		ys := append(edges(f), random(), random(), random(), random())
		for _, y := range ys {
			for _, a := range edges(f) {
				constPairs = append(constPairs, [2]int64{a, y})
			}
			for i := 0; i < 256; i++ {
				constPairs = append(constPairs, [2]int64{random(), y})
			}
		}
		cases = append(cases, mulCase{f, pairs, constPairs})
	}
	for _, c := range cases {
		for _, op := range mulOps {
			t.Run(fmt.Sprintf("%s/Q%d.%d", op.name, c.f.IntBits, c.f.FracBits), func(t *testing.T) {
				checkMul(t, c.f, op, c.pairs, false, false)
				checkMul(t, c.f, op, c.pairs, true, false)
				checkMul(t, c.f, op, c.constPair, false, true)
			})
		}
	}
}

// FuzzMulFixed checks MulFixed against fixed.Num.Mul on random formats of
// width 2–31 (the widths whose exact product fits fixed's int64).
func FuzzMulFixed(f *testing.F) {
	f.Add(uint8(16), uint8(12), int64(-32768), int64(-32768))
	f.Add(uint8(16), uint8(12), int64(32767), int64(-1))
	f.Add(uint8(16), uint8(8), int64(12345), int64(-321))
	f.Add(uint8(16), uint8(15), int64(-1), int64(1))
	f.Add(uint8(16), uint8(0), int64(181), int64(-181))
	f.Add(uint8(2), uint8(1), int64(1), int64(-2))
	f.Add(uint8(31), uint8(10), int64(1<<30-1), int64(-1<<30))
	f.Fuzz(func(t *testing.T, width, frac uint8, a, b int64) {
		n := int(width)
		if n < 2 || n > 31 {
			n = 2 + n%30
		}
		fm := fixed.Format{FracBits: int(frac) % n}
		fm.IntBits = n - 1 - fm.FracBits
		c := buildBinOp(t, fm, func(bb *circuit.Builder, x, y Word) Word {
			return MulFixed(bb, x, y, fm.FracBits)
		})
		x, y := fm.FromRaw(a), fm.FromRaw(b)
		if got, want := evalBin(t, c, fm, x, y).Raw(), x.Mul(y).Raw(); got != want {
			t.Fatalf("MulFixed(%d, %d) in Q%d.%d = %d, want %d", x.Raw(), y.Raw(), fm.IntBits, fm.FracBits, got, want)
		}
	})
}
