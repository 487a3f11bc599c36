package stdcell

import (
	"deepsecure/internal/circuit"
)

// MulWrap returns the low len(x) bits of x*y (two's-complement wrapping
// product). Both operands must have the same width.
func MulWrap(b *circuit.Builder, x, y Word) Word {
	sameWidth(x, y)
	return mulColumns(b, x, y, len(x), 0)
}

// MulFixed returns the fixed-point product of two n-bit words with
// fracBits fractional bits: bits [fracBits, fracBits+n) of the exact
// signed product, i.e. floor((x*y)/2^frac) wrapped to n bits — exactly
// fixed.Num.Mul. Only the n+fracBits low product columns are built; see
// mulColumns for the construction.
func MulFixed(b *circuit.Builder, x, y Word, fracBits int) Word {
	sameWidth(x, y)
	return mulColumns(b, x, y, len(x)+fracBits, 0)[fracBits:]
}

// MulFixedApprox is the truncated multiplier ablation: partial-product
// bits whose weight falls below 2^(fracBits-guardBits) are skipped
// entirely, trading ≤ a-few-ULP error for a large non-XOR reduction. This
// mirrors the kind of approximation hardware synthesis applies when asked
// for aggressive area optimization; it is benchmarked against MulFixed in
// the ablation suite but is not used on the exact inference path.
func MulFixedApprox(b *circuit.Builder, x, y Word, fracBits, guardBits int) Word {
	sameWidth(x, y)
	cut := fracBits - guardBits
	if cut < 0 {
		cut = 0
	}
	return mulColumns(b, x, y, len(x)+fracBits, cut)[fracBits:]
}

// mulColumns returns bits [0, top) of the signed product x*y, built from
// the partial products in columns [cut, top) only (cut > 0 drops the low
// columns and so approximates). It is a modified Baugh–Wooley array fed
// into a Dadda column compressor:
//
//   - Partial product x_i∧y_j lands in column i+j. The two sign rows
//     (exactly one of i, j is the sign index) have negative weight; each
//     is entered as its complement (a free INV) plus a constant -1, since
//     -t = ¬t - 1. All constants, including partial products that fold
//     to 1 on constant operands, are summed into one word and contribute
//     at most one constant-1 bit per column.
//   - Dadda stages reduce every column below the top one to at most two
//     bits with 1-AND full adders and half adders, then one ripple add
//     resolves them.
//   - The top column's carry-out is discarded, so it is XOR-folded for
//     free instead of compressed.
//
// Columns are plain slices filled in a fixed order, so the netlist is a
// pure function of the operands' wire structure.
func mulColumns(b *circuit.Builder, x, y Word, top, cut int) Word {
	n := len(x)
	cols := make([][]uint32, top)
	konst := make([]int, top) // signed count of constant 1s per column
	for i := 0; i < n; i++ {
		for j := 0; j < n && i+j < top; j++ {
			c := i + j
			if c < cut {
				continue
			}
			w := b.AND(x[i], y[j])
			if (i == n-1) != (j == n-1) {
				w = b.INV(w)
				konst[c]--
			}
			switch w {
			case circuit.WTrue:
				konst[c]++
			case circuit.WFalse:
			default:
				cols[c] = append(cols[c], w)
			}
		}
	}
	// Resolve the constant word mod 2^top (floor division keeps negative
	// counts exact) and prepend its bits to their columns.
	carry := 0
	for c := cut; c < top; c++ {
		v := konst[c] + carry
		if v&1 != 0 {
			cols[c] = append([]uint32{circuit.WTrue}, cols[c]...)
		}
		carry = v >> 1
	}

	// Dadda heights 2, 3, 4, 6, 9, ...: each stage brings every column
	// below the top one down to the next height in the sequence.
	maxH := 0
	for _, col := range cols[:top-1] {
		if len(col) > maxH {
			maxH = len(col)
		}
	}
	heights := []int{2}
	for heights[len(heights)-1] < maxH {
		heights = append(heights, heights[len(heights)-1]*3/2)
	}
	for k := len(heights) - 2; k >= 0; k-- {
		d := heights[k]
		var in []uint32 // carries into column c from column c-1
		for c := 0; c < top-1; c++ {
			q := append(cols[c], in...)
			in = nil
			var sums []uint32
			for h := len(q); h > d; {
				var s, co uint32
				if h == d+1 {
					s, co = halfAdd(b, q[0], q[1])
					q = q[2:]
					h--
				} else {
					s, co = fullAdd(b, q[0], q[1], q[2])
					q = q[3:]
					h -= 2
				}
				sums = append(sums, s)
				in = append(in, co)
			}
			cols[c] = append(q, sums...)
		}
		cols[top-1] = append(cols[top-1], in...)
	}

	// Final ripple add over the (at most) two remaining rows.
	out := make(Word, top)
	var in []uint32
	for c := 0; c < top-1; c++ {
		q := append(cols[c], in...)
		in = nil
		switch len(q) {
		case 0:
			out[c] = circuit.WFalse
		case 1:
			out[c] = q[0]
		case 2:
			s, co := halfAdd(b, q[0], q[1])
			out[c], in = s, []uint32{co}
		default:
			s, co := fullAdd(b, q[0], q[1], q[2])
			out[c], in = s, []uint32{co}
		}
	}
	acc := circuit.WFalse
	for _, w := range append(cols[top-1], in...) {
		acc = b.XOR(acc, w)
	}
	out[top-1] = acc
	return out
}

// Dot computes the fixed-point dot product Σ xs[i]*ws[i] with n-bit
// wrapping accumulation — the paper's matrix–vector multiplication row
// (Table 3 last row): m multipliers and m-1 adders per output element.
func Dot(b *circuit.Builder, xs, ws []Word, fracBits int) Word {
	if len(xs) != len(ws) {
		panic("stdcell: Dot operand count mismatch")
	}
	if len(xs) == 0 {
		panic("stdcell: empty Dot")
	}
	acc := MulFixed(b, xs[0], ws[0], fracBits)
	for i := 1; i < len(xs); i++ {
		acc = Add(b, acc, MulFixed(b, xs[i], ws[i], fracBits))
	}
	return acc
}

// MatVec computes W·x for an (rows × cols) weight matrix given in row-major
// Word order. Each output element is a Dot row.
func MatVec(b *circuit.Builder, w []Word, x []Word, rows, cols, fracBits int) []Word {
	if len(w) != rows*cols {
		panic("stdcell: MatVec weight count mismatch")
	}
	if len(x) != cols {
		panic("stdcell: MatVec input width mismatch")
	}
	out := make([]Word, rows)
	for r := 0; r < rows; r++ {
		out[r] = Dot(b, x, w[r*cols:(r+1)*cols], fracBits)
	}
	return out
}
