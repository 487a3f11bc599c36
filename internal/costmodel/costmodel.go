// Package costmodel implements the paper's GC performance characterization
// (Table 2, Eq. 3/4, §4.3): per-gate computation coefficients, the
// 2×128-bit-per-non-XOR communication constant, and the execution-time
// model Texec = Tcomp + Tcomm that regenerates the Table 4/5/6 rows from
// gate counts. Calibrate measures this machine's per-gate costs the same
// way the paper's "set of subroutines" does.
package costmodel

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
)

// Coefficients hold per-gate costs and the channel model.
type Coefficients struct {
	// XORNs / NonXORNs: combined garble+evaluate nanoseconds per gate.
	XORNs, NonXORNs float64
	// BandwidthMbps models the client↔server channel.
	BandwidthMbps float64
	// Source describes where the numbers came from.
	Source string
}

// Paper returns the paper's coefficients (§4.3): 62 and 164 CPU cycles
// per XOR / non-XOR gate at 3.4 GHz, and the ~824 Mb/s effective channel
// implied by Table 4's benchmark-1 row (791 MB moved in 9.67−1.98 s).
func Paper() Coefficients {
	const ghz = 3.4
	return Coefficients{
		XORNs:         62 / ghz,
		NonXORNs:      164 / ghz,
		BandwidthMbps: 824,
		Source:        "paper §4.3 (i7-2600 @ 3.4 GHz)",
	}
}

// Calibrate measures this machine's per-gate garble+evaluate cost over n
// gates of each class, mirroring §4.3's characterization subroutines. It
// times the kernel every session runs — one-level gc.BatchGarbler /
// gc.BatchEvaluator calls at B=1 on a one-worker pool — rather than the
// per-gate scalar oracle.
func Calibrate(n int) (Coefficients, error) {
	if n < 1000 {
		n = 1000
	}
	rng := rand.New(rand.NewSource(424242))
	g, err := gc.NewBatchGarbler(rng, 1)
	if err != nil {
		return Coefficients{}, err
	}
	e, err := gc.NewBatchEvaluator(1)
	if err != nil {
		return Coefficients{}, err
	}
	// Cycle output wires through a bounded window so the label arrays
	// stay cache-resident, like the streaming execution does: each level
	// call covers at most window gates, whose outputs are distinct.
	const nin, window = 64, 4096
	g.Grow(2 + nin + window)
	e.Grow(2 + nin + window)
	setActive := func(w uint32, bit bool) error {
		l, err := g.ActiveLabel(w, 0, bit)
		if err != nil {
			return err
		}
		e.SetLabel(w, 0, l)
		return nil
	}
	if err := setActive(circuit.WFalse, false); err != nil {
		return Coefficients{}, err
	}
	if err := setActive(circuit.WTrue, true); err != nil {
		return Coefficients{}, err
	}
	for w := uint32(2); w < 2+nin; w++ {
		if err := g.AssignInput(w); err != nil {
			return Coefficients{}, err
		}
		if err := setActive(w, rng.Intn(2) == 1); err != nil {
			return Coefficients{}, err
		}
	}

	pool := gc.NewPool(1)
	tables := make([]byte, window*gc.TableSize)
	var gid uint64
	measure := func(op circuit.Op) (float64, error) {
		gates := make([]circuit.Gate, n)
		for i := range gates {
			gates[i] = circuit.Gate{
				Op:  op,
				A:   2 + uint32(rng.Intn(nin)),
				B:   2 + uint32(rng.Intn(nin)),
				Out: 2 + nin + uint32(i%window),
			}
		}
		start := time.Now()
		for lo := 0; lo < n; lo += window {
			level := gates[lo:min(lo+window, n)]
			ands, frees := level, []circuit.Gate(nil)
			if op != circuit.AND {
				ands, frees = nil, level
			}
			tab := tables[:len(ands)*gc.TableSize]
			if err := g.GarbleLevel(ands, frees, gid, tab, pool); err != nil {
				return 0, err
			}
			if err := e.EvaluateLevel(ands, frees, gid, tab, pool); err != nil {
				return 0, err
			}
			gid += uint64(len(ands))
		}
		return float64(time.Since(start).Nanoseconds()) / float64(n), nil
	}

	xorNs, err := measure(circuit.XOR)
	if err != nil {
		return Coefficients{}, err
	}
	andNs, err := measure(circuit.AND)
	if err != nil {
		return Coefficients{}, err
	}
	return Coefficients{
		XORNs:         xorNs,
		NonXORNs:      andNs,
		BandwidthMbps: 1000,
		Source:        fmt.Sprintf("calibrated over %d gates/class", n),
	}, nil
}

// Estimate is one Table 4/5-style row.
type Estimate struct {
	XOR, NonXOR int64
	CommMB      float64 // garbled tables only, Eq. 4
	CompS       float64 // Eq. 3 over the whole netlist
	ExecS       float64 // Tcomp + Tcomm
}

// FromStats applies Table 2's model to a netlist's gate counts.
func FromStats(s circuit.Stats, co Coefficients) Estimate {
	free := s.FreeXOR()
	non := s.NonXOR()
	commBits := float64(non) * 2 * float64(gc.SecurityBits) // Eq. 4
	commMB := commBits / 8 / 1e6
	compS := (float64(free)*co.XORNs + float64(non)*co.NonXORNs) / 1e9
	execS := compS + commBits/(co.BandwidthMbps*1e6)
	return Estimate{
		XOR:    free,
		NonXOR: non,
		CommMB: commMB,
		CompS:  compS,
		ExecS:  execS,
	}
}

// String renders the estimate as a Table 4 row fragment.
func (e Estimate) String() string {
	return fmt.Sprintf("#XOR=%.2e #non-XOR=%.2e Comm=%.3gMB Comp=%.3gs Exec=%.3gs",
		float64(e.XOR), float64(e.NonXOR), e.CommMB, e.CompS, e.ExecS)
}

// Throughput reports effective gates/second for each class under the
// coefficients (§4.4 quotes 2.56M non-XOR/s and 5.11M XOR/s).
func Throughput(co Coefficients) (xorPerSec, nonXORPerSec float64) {
	return 1e9 / co.XORNs, 1e9 / co.NonXORNs
}

// DelayDeepSecure returns the client-perceived processing delay for n
// samples under DeepSecure's linear-per-sample model (Fig. 6).
func DelayDeepSecure(n int, perSampleS float64) float64 {
	return float64(n) * perSampleS
}

// DelayCryptoNets returns the delay for n samples under the HE baseline's
// batch model: a constant cost per batch of `slots` samples (Fig. 6's
// step function).
func DelayCryptoNets(n, slots int, perBatchS float64) float64 {
	if n <= 0 {
		return 0
	}
	batches := (n + slots - 1) / slots
	return float64(batches) * perBatchS
}

// Crossover returns the largest client batch size for which DeepSecure's
// delay stays at or below the HE baseline's (the paper's "less than 2600
// samples" break-even, §1/Fig. 6). Returns math.MaxInt32 when DeepSecure
// always wins within the scanned range.
func Crossover(perSampleS, perBatchS float64, slots, scanMax int) int {
	last := 0
	for n := 1; n <= scanMax; n++ {
		if DelayDeepSecure(n, perSampleS) <= DelayCryptoNets(n, slots, perBatchS) {
			last = n
		}
	}
	if last == scanMax {
		return math.MaxInt32
	}
	return last
}
