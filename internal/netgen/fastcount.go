package netgen

import (
	"fmt"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/nn"
	"deepsecure/internal/stdcell"
)

// FastCount computes the exact gate statistics of a network's netlist
// analytically: it probes each repeated sub-circuit (one MAC, one
// activation instance, one pooling window) once and multiplies by its
// multiplicity — the same characterization methodology as the paper's
// Table 2. The result is identical to streaming Count (asserted by the
// package tests) but runs in milliseconds even for benchmark 4's ~10⁹
// gates, which is how the paper-scale Table 4/5 rows are produced.
//
// The builder's constant folding makes gate costs depend on the
// *structure* of operand words, not just their width: a ReLU output has a
// constant-zero sign bit, so every multiplier fed by it drops that sign's
// row of partial products. FastCount therefore tracks
// whether each layer's activations are structurally non-negative and uses
// matching probes.
func FastCount(net *nn.Network, f fixed.Format, opt Options) (circuit.Stats, *Layout, error) {
	bits := f.Bits()
	lay := &Layout{}
	var total circuit.Stats
	n := net.In.Len()
	lay.DataBits = n * bits
	if opt.Outsourced {
		lay.ShareBits = n * bits
		total.XOR += int64(n * bits) // recombination layer
	}

	// word materializes a probe operand: full-width input word, or one
	// with a constant-zero sign bit (post-ReLU shape).
	word := func(b *circuit.Builder, nonneg bool) stdcell.Word {
		if !nonneg {
			return stdcell.Input(b, circuit.Garbler, bits)
		}
		w := stdcell.Input(b, circuit.Garbler, bits-1)
		return append(w.Clone(), circuit.WFalse)
	}

	macCost := func(nonneg bool) circuit.Stats {
		return probe(func(b *circuit.Builder) {
			x := word(b, nonneg)
			w := stdcell.Input(b, circuit.Garbler, bits)
			acc := stdcell.Input(b, circuit.Garbler, bits)
			p := stdcell.MulFixed(b, x, w, f.FracBits)
			stdcell.Add(b, acc, p)
		})
	}

	actCost := func(kind act.Kind, nonneg bool) circuit.Stats {
		impl := act.New(kind, f)
		return probe(func(b *circuit.Builder) {
			impl.Circuit(b, word(b, nonneg))
		})
	}

	windowCost := func(k int, mean, nonneg bool) circuit.Stats {
		return probe(func(b *circuit.Builder) {
			w := make([]stdcell.Word, k*k)
			for i := range w {
				w[i] = word(b, nonneg)
			}
			if mean {
				stdcell.MeanPool(b, w)
			} else {
				stdcell.MaxPool(b, w)
			}
		})
	}

	nonneg := false // whether the current activations have const-0 signs
	for li, layer := range net.Layers {
		switch v := layer.(type) {
		case *nn.Dense:
			addStats(&total, macCost(nonneg), int64(v.ActiveWeights()))
			lay.WeightBits += (v.ActiveWeights() + len(v.Biases())) * bits
			nonneg = false

		case *nn.Conv2D:
			in := net.In
			if li > 0 {
				in = net.ShapeAt(li - 1)
			}
			out := net.ShapeAt(li)
			_, mask := v.Weights()
			var macs int64
			for oy := 0; oy < out.H; oy++ {
				for ox := 0; ox < out.W; ox++ {
					for ky := 0; ky < v.K; ky++ {
						iy := oy*v.Stride - v.Pad + ky
						if iy < 0 || iy >= in.H {
							continue
						}
						for kx := 0; kx < v.K; kx++ {
							ix := ox*v.Stride - v.Pad + kx
							if ix < 0 || ix >= in.W {
								continue
							}
							for oc := 0; oc < v.OutC; oc++ {
								for ic := 0; ic < in.C; ic++ {
									if mask[((oc*in.C+ic)*v.K+ky)*v.K+kx] {
										macs++
									}
								}
							}
						}
					}
				}
			}
			addStats(&total, macCost(nonneg), macs)
			lay.WeightBits += (v.ActiveWeights() + len(v.Biases())) * bits
			nonneg = false

		case *nn.Activation:
			if v.Kind == act.Identity {
				continue
			}
			in := net.In
			if li > 0 {
				in = net.ShapeAt(li - 1)
			}
			addStats(&total, actCost(v.Kind, nonneg), int64(in.Len()))
			nonneg = v.Kind == act.ReLU

		case *nn.MaxPool2D:
			out := net.ShapeAt(li)
			addStats(&total, windowCost(v.K, false, nonneg), int64(out.Len()))
			// Mux chains preserve a shared constant sign bit.

		case *nn.MeanPool2D:
			out := net.ShapeAt(li)
			addStats(&total, windowCost(v.K, true, nonneg), int64(out.Len()))
			nonneg = false // the summed sign bit is a live carry wire

		default:
			return circuit.Stats{}, nil, fmt.Errorf("netgen: FastCount: unsupported layer %T", layer)
		}
	}

	if opt.RawScores {
		lay.OutputBits = net.Out().Len() * bits
	} else {
		outN := net.Out().Len()
		nn := nonneg
		argCost := probe(func(b *circuit.Builder) {
			vals := make([]stdcell.Word, outN)
			for i := range vals {
				vals[i] = word(b, nn)
			}
			stdcell.ArgMax(b, vals)
		})
		addStats(&total, argCost, 1)
		idxBits := 1
		for (1 << uint(idxBits)) < outN {
			idxBits++
		}
		lay.OutputBits = idxBits
	}

	total.GarblerInputs = int64(lay.DataBits)
	total.EvaluatorInputs = int64(lay.ShareBits + lay.WeightBits)
	total.Outputs = int64(lay.OutputBits)
	return total, lay, nil
}

func probe(gen func(b *circuit.Builder)) circuit.Stats {
	b := circuit.NewBuilder(circuit.Counter{}, circuit.WithRecycling())
	gen(b)
	s := b.Stats()
	s.GarblerInputs, s.EvaluatorInputs, s.Outputs, s.MaxLive = 0, 0, 0, 0
	return s
}

func addStats(total *circuit.Stats, unit circuit.Stats, times int64) {
	total.XOR += unit.XOR * times
	total.AND += unit.AND * times
	total.INV += unit.INV * times
}
