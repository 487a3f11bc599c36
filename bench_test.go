package deepsecure

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (§4). Experiment outputs are attached as custom
// benchmark metrics (gates, MB, seconds, folds) so `go test -bench` output
// doubles as the reproduction record; EXPERIMENTS.md interprets the rows
// against the paper's published numbers.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/circuit"
	"deepsecure/internal/core"
	"deepsecure/internal/costmodel"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/hebaseline"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/stdcell"
	"deepsecure/internal/transport"
)

// BenchmarkTable3Components regenerates Table 3: gate counts of every DL
// circuit component in the synthesis library.
func BenchmarkTable3Components(b *testing.B) {
	f := fixed.Default
	kinds := []act.Kind{
		act.TanhLUT, act.TanhTrunc, act.TanhPL, act.TanhCORDIC,
		act.SigmoidLUT, act.SigmoidTrunc, act.SigmoidPLAN, act.SigmoidCORDIC,
	}
	for _, kind := range kinds {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var s circuit.Stats
			for i := 0; i < b.N; i++ {
				a := act.New(kind, f)
				var err error
				s, err = circuit.Count(func(cb *circuit.Builder) {
					x := stdcell.Input(cb, circuit.Garbler, f.Bits())
					cb.Outputs(a.Circuit(cb, x)...)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.NonXOR()), "nonXOR")
			b.ReportMetric(float64(s.FreeXOR()), "XOR")
		})
	}
	for _, comp := range []struct {
		name string
		gen  func(cb *circuit.Builder)
	}{
		{"ADD", func(cb *circuit.Builder) {
			x := stdcell.Input(cb, circuit.Garbler, f.Bits())
			y := stdcell.Input(cb, circuit.Garbler, f.Bits())
			cb.Outputs(stdcell.Add(cb, x, y)...)
		}},
		{"MULT", func(cb *circuit.Builder) {
			x := stdcell.Input(cb, circuit.Garbler, f.Bits())
			y := stdcell.Input(cb, circuit.Garbler, f.Bits())
			cb.Outputs(stdcell.MulFixed(cb, x, y, f.FracBits)...)
		}},
		{"DIV", func(cb *circuit.Builder) {
			x := stdcell.Input(cb, circuit.Garbler, f.Bits())
			y := stdcell.Input(cb, circuit.Garbler, f.Bits())
			cb.Outputs(stdcell.DivFixed(cb, x, y, f.FracBits)...)
		}},
		{"ReLu", func(cb *circuit.Builder) {
			x := stdcell.Input(cb, circuit.Garbler, f.Bits())
			cb.Outputs(stdcell.ReLU(cb, x)...)
		}},
		{"Softmax10", func(cb *circuit.Builder) {
			vals := make([]stdcell.Word, 10)
			for i := range vals {
				vals[i] = stdcell.Input(cb, circuit.Garbler, f.Bits())
			}
			cb.Outputs(stdcell.ArgMax(cb, vals)...)
		}},
	} {
		comp := comp
		b.Run(comp.name, func(b *testing.B) {
			var s circuit.Stats
			for i := 0; i < b.N; i++ {
				var err error
				s, err = circuit.Count(comp.gen)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.NonXOR()), "nonXOR")
			b.ReportMetric(float64(s.FreeXOR()), "XOR")
		})
	}
}

// BenchmarkTable4 regenerates Table 4: per-benchmark gate counts and the
// cost-model execution estimate without pre-processing.
func BenchmarkTable4(b *testing.B) {
	co := costmodel.Paper()
	for _, bench := range benchmarks.All {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var est costmodel.Estimate
			for i := 0; i < b.N; i++ {
				net, err := bench.Build()
				if err != nil {
					b.Fatal(err)
				}
				s, _, err := netgen.FastCount(net, benchmarks.Format, netgen.Options{})
				if err != nil {
					b.Fatal(err)
				}
				est = costmodel.FromStats(s, co)
			}
			b.ReportMetric(float64(est.NonXOR), "nonXOR")
			b.ReportMetric(est.CommMB, "commMB")
			b.ReportMetric(est.ExecS, "execS")
			b.ReportMetric(est.ExecS/bench.Paper.ExecS, "vsPaper")
		})
	}
}

// BenchmarkTable5 regenerates Table 5: the pre-processed variants and the
// improvement folds.
func BenchmarkTable5(b *testing.B) {
	co := costmodel.Paper()
	for _, bench := range benchmarks.All {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			var fold, execS float64
			for i := 0; i < b.N; i++ {
				net, err := bench.Build()
				if err != nil {
					b.Fatal(err)
				}
				full, _, err := netgen.FastCount(net, benchmarks.Format, netgen.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cNet, err := benchmarks.Compacted(bench)
				if err != nil {
					b.Fatal(err)
				}
				post, _, err := netgen.FastCount(cNet, benchmarks.Format, netgen.Options{})
				if err != nil {
					b.Fatal(err)
				}
				eFull := costmodel.FromStats(full, co)
				ePost := costmodel.FromStats(post, co)
				fold = eFull.ExecS / ePost.ExecS
				execS = ePost.ExecS
			}
			b.ReportMetric(execS, "execS")
			b.ReportMetric(fold, "fold")
			b.ReportMetric(bench.Paper.Improvement, "paperFold")
		})
	}
}

// BenchmarkTable6CryptoNets measures the HE baseline's constant per-batch
// cost (scaled-down ring; see EXPERIMENTS.md for the N=8192 run).
func BenchmarkTable6CryptoNets(b *testing.B) {
	scheme, err := hebaseline.NewScheme(hebaseline.EvalParams(1024))
	if err != nil {
		b.Fatal(err)
	}
	var batch float64
	for i := 0; i < b.N; i++ {
		costs, err := hebaseline.MeasureOpCosts(scheme, 1)
		if err != nil {
			b.Fatal(err)
		}
		batch = hebaseline.BatchSeconds(hebaseline.Benchmark1Counts(), costs)
	}
	b.ReportMetric(batch, "batchS")
	b.ReportMetric(float64(scheme.Slots()), "slots")
}

// BenchmarkTable6DeepSecureLive runs a real secure inference end-to-end
// (a mid-size DNN so a bench iteration stays in seconds) and reports the
// per-sample wall time and traffic that enter the Table 6 comparison.
func BenchmarkTable6DeepSecureLive(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(128),
		nn.NewDense(32),
		nn.NewActivation(act.TanhCORDIC),
		nn.NewDense(10),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(1)))
	x := make([]float64, 128)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	b.ResetTimer()
	var st *core.Stats
	for i := 0; i < b.N; i++ {
		cConn, sConn, closer := transport.Pipe()
		srv := &core.Server{Net: net, Fmt: fixed.Default}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(sConn); err != nil {
				b.Error(err)
			}
		}()
		cli := &core.Client{}
		_, st, err = cli.Infer(cConn, x)
		wg.Wait()
		closer.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.ANDGates), "ANDgates")
	b.ReportMetric(float64(st.BytesSent)/1e6, "sentMB")
	b.ReportMetric(st.Duration.Seconds(), "sessionS")
}

// BenchmarkFigure6Crossover computes the delay curves and break-even
// points of Figure 6 from a quick HE measurement plus the GC cost model.
func BenchmarkFigure6Crossover(b *testing.B) {
	scheme, err := hebaseline.NewScheme(hebaseline.EvalParams(1024))
	if err != nil {
		b.Fatal(err)
	}
	costs, err := hebaseline.MeasureOpCosts(scheme, 1)
	if err != nil {
		b.Fatal(err)
	}
	cnBatch := hebaseline.BatchSeconds(hebaseline.Benchmark1Counts(), costs)
	slots := costs.Slots
	co := costmodel.Paper()
	b1, err := benchmarks.B1()
	if err != nil {
		b.Fatal(err)
	}
	full, _, err := netgen.FastCount(b1, benchmarks.Format, netgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cNet, err := benchmarks.Compacted(benchmarks.All[0])
	if err != nil {
		b.Fatal(err)
	}
	post, _, err := netgen.FastCount(cNet, benchmarks.Format, netgen.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var c1, c2 int
	for i := 0; i < b.N; i++ {
		c1 = costmodel.Crossover(costmodel.FromStats(full, co).ExecS, cnBatch, slots, 4*slots)
		c2 = costmodel.Crossover(costmodel.FromStats(post, co).ExecS, cnBatch, slots, 4*slots)
	}
	b.ReportMetric(float64(c1), "crossNoPrep")
	b.ReportMetric(float64(c2), "crossPrep")
	b.ReportMetric(cnBatch, "cnBatchS")
}

// BenchmarkFigure5Pipeline demonstrates the §4.4/Fig. 5 overlap: the
// pipelined protocol (garbling streams into evaluation) versus garbling
// and evaluating strictly in sequence.
func BenchmarkFigure5Pipeline(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(64),
		nn.NewDense(24),
		nn.NewActivation(act.ReLU),
		nn.NewDense(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(5)))
	g := circuit.NewGraph()
	if _, err := netgen.Generate(circuit.NewBuilder(g), net, fixed.Default, netgen.Options{RawScores: true}); err != nil {
		b.Fatal(err)
	}
	c := g.Circuit()

	b.Run("engineOnly", func(b *testing.B) {
		var garbleNs, evalNs int64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(9))
			gb, err := gc.NewGarbler(rng)
			if err != nil {
				b.Fatal(err)
			}
			ev := gc.NewEvaluator()
			lf, lt, _ := gb.ConstLabels()
			ev.SetLabel(circuit.WFalse, lf)
			ev.SetLabel(circuit.WTrue, lt)
			for _, w := range c.GarblerInputs {
				gb.AssignInput(w)
				l, _ := gb.ActiveLabel(w, false)
				ev.SetLabel(w, l)
			}
			for _, w := range c.EvaluatorInputs {
				gb.AssignInput(w)
				l, _ := gb.ActiveLabel(w, false)
				ev.SetLabel(w, l)
			}
			// Phase 1: garble everything. Phase 2: evaluate everything.
			var tables []byte
			t0 := nowNs()
			for _, gate := range c.Gates {
				tables, err = gb.Garble(gate, tables)
				if err != nil {
					b.Fatal(err)
				}
			}
			t1 := nowNs()
			rest := tables
			for _, gate := range c.Gates {
				rest, err = ev.Eval(gate, rest)
				if err != nil {
					b.Fatal(err)
				}
			}
			t2 := nowNs()
			garbleNs += t1 - t0
			evalNs += t2 - t1
		}
		b.ReportMetric(float64(garbleNs)/float64(b.N)/1e6, "garbleMs")
		b.ReportMetric(float64(evalNs)/float64(b.N)/1e6, "evalMs")
	})
	// The full protocol overlaps the evaluator's work with the garbler's
	// streaming (Fig. 5); its extra cost over engineOnly is OT + framing,
	// while its two phases run concurrently instead of back to back.
	b.Run("fullProtocolPipelined", func(b *testing.B) {
		x := make([]float64, 64)
		for i := 0; i < b.N; i++ {
			cConn, sConn, closer := transport.Pipe()
			srv := &core.Server{Net: net, Fmt: fixed.Default}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := srv.Serve(sConn); err != nil {
					b.Error(err)
				}
			}()
			cli := &core.Client{}
			if _, _, err := cli.Infer(cConn, x); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
			closer.Close()
		}
	})
}

// BenchmarkCalibration regenerates the §4.3 characterization: per-gate
// garble+evaluate cost and the implied gates/second.
func BenchmarkCalibration(b *testing.B) {
	var co costmodel.Coefficients
	for i := 0; i < b.N; i++ {
		var err error
		co, err = costmodel.Calibrate(100000)
		if err != nil {
			b.Fatal(err)
		}
	}
	xput, nput := costmodel.Throughput(co)
	b.ReportMetric(co.XORNs, "XORns")
	b.ReportMetric(co.NonXORNs, "nonXORns")
	b.ReportMetric(xput/1e6, "MXORps")
	b.ReportMetric(nput/1e6, "MnonXORps")
}

// BenchmarkOTExtension measures extended-OT throughput (the §3.1 step-ii
// substrate that transfers every weight bit).
func BenchmarkOTExtension(b *testing.B) {
	const m = 4096
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]ot.Msg, m)
	choices := make([]bool, m)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
		choices[i] = rng.Intn(2) == 1
	}
	a, c, closer := transport.Pipe()
	defer closer.Close()
	var snd *ot.ExtSender
	var rcv *ot.ExtReceiver
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		snd, err = ot.NewExtSender(a, rand.New(rand.NewSource(8)))
		if err != nil {
			b.Error(err)
		}
	}()
	var err error
	rcv, err = ot.NewExtReceiver(c, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	wg.Wait()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := snd.Send(pairs); err != nil {
				b.Error(err)
			}
		}()
		if _, err := rcv.Receive(choices); err != nil {
			b.Fatal(err)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "OTs/s")
}

// BenchmarkOTRowHash isolates the IKNP row-hashing change: the 2m sender
// hashes and m receiver hashes per extension batch now flow through the
// multi-lane HN face instead of per-row scalar H calls. Both rows run the
// identical full exchange — PRG expansion, transpose, transport — with
// only the hashing kernel toggled, so the scalar→wide delta is the
// row-hash win. The rows are recorded in BENCH_ot.json.
func BenchmarkOTRowHash(b *testing.B) {
	const m = 4096
	rng := rand.New(rand.NewSource(47))
	pairs := make([][2]ot.Msg, m)
	choices := make([]bool, m)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
		choices[i] = rng.Intn(2) == 1
	}
	run := func(b *testing.B, wide bool) {
		if wide && !gc.WideAvailable() {
			b.Skip("AES-NI wide kernel unavailable on this machine")
		}
		// Hashers latch the wide toggle at construction, so both parties
		// must be built inside the toggled scope.
		prev := gc.SetWide(wide)
		defer gc.SetWide(prev)
		a, c, closer := transport.Pipe()
		defer closer.Close()
		var snd *ot.ExtSender
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			snd, err = ot.NewExtSender(a, rand.New(rand.NewSource(48)))
			if err != nil {
				b.Error(err)
			}
		}()
		rcv, err := ot.NewExtReceiver(c, rand.New(rand.NewSource(49)))
		if err != nil {
			b.Fatal(err)
		}
		wg.Wait()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := snd.Send(pairs); err != nil {
					b.Error(err)
				}
			}()
			if _, err := rcv.Receive(choices); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "OTs/s")
	}
	b.Run("scalar", func(b *testing.B) { run(b, false) })
	b.Run("wide", func(b *testing.B) { run(b, true) })
}

// BenchmarkHEPrimitives measures the HE baseline's primitive costs.
func BenchmarkHEPrimitives(b *testing.B) {
	scheme, err := hebaseline.NewScheme(hebaseline.EvalParams(1024))
	if err != nil {
		b.Fatal(err)
	}
	sk, pk := scheme.KeyGen()
	vals := make([]int64, scheme.Slots())
	pt, err := scheme.EncodeSlots(vals)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := scheme.Encrypt(pk, pt)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Encrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := scheme.Encrypt(pk, pt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ScalarMAC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheme.Add(ct, scheme.MulScalar(ct, 17))
		}
	})
	b.Run("Square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheme.Mul(ct, ct)
		}
	})
	b.Run("Decrypt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scheme.Decrypt(sk, ct)
		}
	})
}

// BenchmarkOutsourcingOverhead verifies §3.3's "almost free" claim: the
// share-recombination layer adds XOR gates only.
func BenchmarkOutsourcingOverhead(b *testing.B) {
	net, err := benchmarks.B3()
	if err != nil {
		b.Fatal(err)
	}
	var plain, outs circuit.Stats
	for i := 0; i < b.N; i++ {
		plain, _, err = netgen.FastCount(net, benchmarks.Format, netgen.Options{})
		if err != nil {
			b.Fatal(err)
		}
		outs, _, err = netgen.FastCount(net, benchmarks.Format, netgen.Options{Outsourced: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(outs.NonXOR()-plain.NonXOR()), "extraNonXOR")
	b.ReportMetric(float64(outs.XOR-plain.XOR), "extraXOR")
}

// BenchmarkAblationApproxMultiplier quantifies the truncated-multiplier
// design alternative from DESIGN.md: non-XOR gates saved per MAC versus
// worst-case error (the exact multiplier is used on the inference path).
func BenchmarkAblationApproxMultiplier(b *testing.B) {
	f := fixed.Default
	var exact, approx circuit.Stats
	for i := 0; i < b.N; i++ {
		var err error
		exact, err = circuit.Count(func(cb *circuit.Builder) {
			x := stdcell.Input(cb, circuit.Garbler, f.Bits())
			y := stdcell.Input(cb, circuit.Garbler, f.Bits())
			cb.Outputs(stdcell.MulFixed(cb, x, y, f.FracBits)...)
		})
		if err != nil {
			b.Fatal(err)
		}
		approx, err = circuit.Count(func(cb *circuit.Builder) {
			x := stdcell.Input(cb, circuit.Garbler, f.Bits())
			y := stdcell.Input(cb, circuit.Garbler, f.Bits())
			cb.Outputs(stdcell.MulFixedApprox(cb, x, y, f.FracBits, 4)...)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(exact.NonXOR()), "exactNonXOR")
	b.ReportMetric(float64(approx.NonXOR()), "approxNonXOR")
	b.ReportMetric(float64(exact.NonXOR()-approx.NonXOR()), "savedNonXOR")
}

// BenchmarkGarbleGates measures the raw garbler throughput on AND gates.
func BenchmarkGarbleGates(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	g, err := gc.NewGarbler(rng)
	if err != nil {
		b.Fatal(err)
	}
	for w := uint32(2); w < 40; w++ {
		if _, err := g.AssignInput(w); err != nil {
			b.Fatal(err)
		}
	}
	var tables []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gate := circuit.Gate{Op: circuit.AND, A: 2 + uint32(i%30), B: 3 + uint32(i%30), Out: 40 + uint32(i%1000)}
		tables, err = g.Garble(gate, tables[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(gc.TableSize))
}

// BenchmarkHashWide measures the fixed-key garbling hash: one label per
// H call (scalar), versus the multi-lane HN entry point on the portable
// fallback, versus HN on the 8-block pipelined AES-NI kernel (skipped
// where unavailable). The wide/scalar ratio is the kernel's win with all
// staging overhead included — the acceptance floor is 2× on AES-NI.
func BenchmarkHashWide(b *testing.B) {
	const n = 1024
	labels := make([]gc.Label, n)
	tweaks := make([]uint64, n)
	dst := make([]gc.Label, n)
	rng := rand.New(rand.NewSource(41))
	for i := range labels {
		rng.Read(labels[i][:])
		tweaks[i] = rng.Uint64()
	}
	b.Run("scalar", func(b *testing.B) {
		h := gc.NewHasher()
		b.SetBytes(n * gc.LabelSize)
		for i := 0; i < b.N; i++ {
			for j := range labels {
				dst[j] = h.H(labels[j], tweaks[j])
			}
		}
	})
	b.Run("fallbackHN", func(b *testing.B) {
		prev := gc.SetWide(false)
		defer gc.SetWide(prev)
		h := gc.NewHasher()
		b.SetBytes(n * gc.LabelSize)
		for i := 0; i < b.N; i++ {
			h.HN(dst, labels, tweaks)
		}
	})
	b.Run("wideHN", func(b *testing.B) {
		if !gc.WideAvailable() {
			b.Skip("AES-NI wide kernel unavailable on this machine")
		}
		prev := gc.SetWide(true)
		defer gc.SetWide(prev)
		h := gc.NewHasher()
		b.SetBytes(n * gc.LabelSize)
		for i := 0; i < b.N; i++ {
			h.HN(dst, labels, tweaks)
		}
	})
}

// BenchmarkGarbleLevel measures the batched level kernel — the unit the
// session engines call per gate level — across B∈{1,16} with the wide
// hashing core on and off, on a single worker so the rows isolate the
// hashing core rather than the pool. The Mgates/s column feeds the
// README's throughput table.
func BenchmarkGarbleLevel(b *testing.B) {
	const nIn = 64
	const nAND = 1024
	rng := rand.New(rand.NewSource(42))
	ands := make([]circuit.Gate, nAND)
	for i := range ands {
		ands[i] = circuit.Gate{
			Op:  circuit.AND,
			A:   2 + uint32(rng.Intn(nIn)),
			B:   2 + uint32(rng.Intn(nIn)),
			Out: 2 + nIn + uint32(i),
		}
	}
	for _, wide := range []bool{false, true} {
		wide := wide
		mode := "scalar"
		if wide {
			mode = "wide"
		}
		for _, batch := range []int{1, 16} {
			batch := batch
			b.Run(fmt.Sprintf("%s/B=%d", mode, batch), func(b *testing.B) {
				if wide && !gc.WideAvailable() {
					b.Skip("AES-NI wide kernel unavailable on this machine")
				}
				prev := gc.SetWide(wide)
				defer gc.SetWide(prev)
				g, err := gc.NewBatchGarbler(rand.New(rand.NewSource(43)), batch)
				if err != nil {
					b.Fatal(err)
				}
				g.Grow(2 + nIn + nAND)
				for w := uint32(2); w < 2+nIn; w++ {
					if err := g.AssignInput(w); err != nil {
						b.Fatal(err)
					}
				}
				pool := gc.NewSharedPool(nil, 1) // inline: one core
				tables := make([]byte, nAND*batch*gc.TableSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := g.GarbleLevel(ands, nil, 0, tables, pool); err != nil {
						b.Fatal(err)
					}
				}
				gates := float64(nAND*batch) * float64(b.N)
				b.ReportMetric(gates/b.Elapsed().Seconds()/1e6, "Mgates/s")
			})
		}
	}
}

// BenchmarkFullB3GateCount times the streaming generation of benchmark 3's
// complete netlist (26M+ gates), demonstrating the constant-memory path.
func BenchmarkFullB3GateCount(b *testing.B) {
	net, err := benchmarks.B3()
	if err != nil {
		b.Fatal(err)
	}
	var s circuit.Stats
	for i := 0; i < b.N; i++ {
		s, _, err = netgen.Count(net, benchmarks.Format, netgen.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Total()), "gates")
	b.ReportMetric(float64(s.MaxLive), "maxLiveWires")
}

// BenchmarkSessionThroughput compares K independent one-shot sessions
// against one multi-inference session of K inferences. The multi
// variant pays the handshake, OT base phase, and netlist generation once
// and replays the compiled tape thereafter; its inferences/sec must be
// measurably higher.
func BenchmarkSessionThroughput(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(64),
		nn.NewDense(24),
		nn.NewActivation(act.ReLU),
		nn.NewDense(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(21)))
	const k = 8
	rng := rand.New(rand.NewSource(22))
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, 64)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}

	b.Run("oneShotSessions", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A fresh connection, server state, and client per sample:
			// every inference re-negotiates and regenerates.
			for _, x := range xs {
				cConn, sConn, closer := transport.Pipe()
				srv := &core.Server{Net: net, Fmt: fixed.Default}
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := srv.Serve(sConn); err != nil {
						b.Error(err)
					}
				}()
				cli := &core.Client{}
				if _, _, err := cli.Infer(cConn, x); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				closer.Close()
			}
		}
		b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "inf/s")
	})

	b.Run("multiInferenceSession", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cConn, sConn, closer := transport.Pipe()
			srv := &core.Server{Net: net, Fmt: fixed.Default}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := srv.ServeSession(sConn); err != nil {
					b.Error(err)
				}
			}()
			cli := &core.Client{}
			if _, _, err := cli.InferMany(cConn, xs); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
			closer.Close()
		}
		b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "inf/s")
	})
}

// BenchmarkSharedPool drives S concurrent in-process sessions through
// one server on the process-wide shared work-stealing scheduler. It is
// the in-process half of the BENCH_load.json story — the worker count
// stays fixed as S grows — and doubles as the per-PR deadlock canary for
// the scheduler's steal paths: CI runs one iteration, so a regression
// that wedges concurrent Do submissions hangs here, not in production.
func BenchmarkSharedPool(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(32),
		nn.NewDense(16),
		nn.NewActivation(act.ReLU),
		nn.NewDense(4),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(71)))
	rng := rand.New(rand.NewSource(72))
	const k = 2 // inferences per session
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, 32)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	for _, sessions := range []int{4, 16} {
		b.Run(fmt.Sprintf("sessions=%d", sessions), func(b *testing.B) {
			srv := &core.Server{Net: net, Fmt: fixed.Default}
			if err := srv.Precompile(); err != nil {
				b.Fatal(err)
			}
			cli := &core.Client{}
			warmClient(b, srv, cli)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make(chan error, 2*sessions)
				for s := 0; s < sessions; s++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						cConn, sConn, closer := transport.Pipe()
						defer closer.Close()
						srvDone := make(chan struct{})
						go func() {
							defer close(srvDone)
							if _, err := srv.ServeSession(sConn); err != nil {
								errs <- err
							}
						}()
						if _, _, err := cli.InferMany(cConn, xs); err != nil {
							errs <- err
						}
						<-srvDone
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sessions*k*b.N)/b.Elapsed().Seconds(), "inf/s")
		})
	}
}

// warmClient runs one untimed session so the client's lazily compiled
// program is cached before the timer starts: otherwise the first timed
// iteration pays netgen.Compile.
func warmClient(b *testing.B, srv *core.Server, cli *core.Client) {
	b.Helper()
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srvDone := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		srvDone <- err
	}()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		b.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		b.Fatal(err)
	}
	if err := <-srvDone; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineThroughput compares the sequential engine (Workers=1)
// against the level-scheduled parallel engine (Workers=GOMAXPROCS) on
// the same session workload: both parties run the same mode, so the row
// pair isolates the engine's contribution to inferences/sec. Results are
// committed as BENCH_engine.json. On a single-core host the two modes
// should be within noise of each other; the parallel win appears from
// ~4 cores up (see ISSUE 2's acceptance criterion).
func BenchmarkEngineThroughput(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(96),
		nn.NewDense(32),
		nn.NewActivation(act.ReLU),
		nn.NewDense(10),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(61)))
	const k = 2
	rng := rand.New(rand.NewSource(62))
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, 96)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	modes := []struct {
		name string
		cfg  core.EngineConfig
	}{
		{"sequential", core.EngineConfig{Workers: 1}},
		{"parallel", core.EngineConfig{Workers: 0 /* GOMAXPROCS */}},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			srv := &core.Server{Net: net, Fmt: fixed.Default, Engine: mode.cfg}
			if err := srv.Precompile(); err != nil {
				b.Fatal(err)
			}
			cli := &core.Client{Engine: mode.cfg}
			warmClient(b, srv, cli)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cConn, sConn, closer := transport.Pipe()
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := srv.ServeSession(sConn); err != nil {
						b.Error(err)
					}
				}()
				if _, _, err := cli.InferMany(cConn, xs); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				closer.Close()
			}
			b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "inf/s")
			b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
		})
	}
}

// BenchmarkOTOnline measures the per-inference online OT cost with the
// precomputed random-OT pool on versus off (same model and session shape
// as BenchmarkEngineThroughput). Pool off, every input batch runs the
// full IKNP exchange — PRG expansion, 16m-byte U matrix, transpose, and
// 2m hashes — on the critical path; pool on, the same batch is one
// derandomization exchange (an m/8-byte correction vector against
// pre-generated OTs, XORs only) and the IKNP crypto moves into session
// setup and refill gaps. Results are committed as BENCH_ot.json.
func BenchmarkOTOnline(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(96),
		nn.NewDense(32),
		nn.NewActivation(act.ReLU),
		nn.NewDense(10),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(81)))
	const k = 4
	rng := rand.New(rand.NewSource(82))
	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, 96)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	modes := []struct {
		name string
		cfg  precomp.PoolConfig
	}{
		{"poolOff", precomp.PoolConfig{}},
		{"poolOn", precomp.PoolConfig{Capacity: 1 << 16, RefillLowWater: 1 << 14, Background: true}},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			srv := &core.Server{Net: net, Fmt: fixed.Default, OTPool: mode.cfg}
			if err := srv.Precompile(); err != nil {
				b.Fatal(err)
			}
			cli := &core.Client{}
			var srvStats core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cConn, sConn, closer := transport.Pipe()
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					st, err := srv.ServeSession(sConn)
					if err != nil {
						b.Error(err)
						return
					}
					srvStats.OTOnlineTime += st.OTOnlineTime
					srvStats.OTOfflineTime += st.OTOfflineTime
					srvStats.OTsConsumed += st.OTsConsumed
					srvStats.OTsDirect += st.OTsDirect
					srvStats.OTBatches += st.OTBatches
					srvStats.OTRefills += st.OTRefills
					srvStats.Inferences += st.Inferences
				}()
				if _, _, err := cli.InferMany(cConn, xs); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				closer.Close()
			}
			inf := float64(srvStats.Inferences)
			b.ReportMetric(srvStats.OTOnlineTime.Seconds()*1e3/inf, "otOnlineMs/inf")
			b.ReportMetric(srvStats.OTOfflineTime.Seconds()*1e3/inf, "otOfflineMs/inf")
			b.ReportMetric(float64(srvStats.OTBatches)/inf, "otExchanges/inf")
			b.ReportMetric(float64(srvStats.OTsConsumed+srvStats.OTsDirect)/inf, "OTs/inf")
			b.ReportMetric(float64(srvStats.OTRefills)/inf, "refills/inf")
			b.ReportMetric(float64(k*b.N)/b.Elapsed().Seconds(), "inf/s")
		})
	}
}

// delayHalf is one direction of an in-memory pipe that delivers writes
// to the reader only after a one-way delay — a WAN link model for the
// pipeline benchmark's latency-hiding rows.
type delayHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks []delayChunk
	closed bool
	delay  time.Duration
}

type delayChunk struct {
	at   time.Time
	data []byte
}

func newDelayHalf(d time.Duration) *delayHalf {
	h := &delayHalf{delay: d}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *delayHalf) Write(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, errors.New("delay pipe closed")
	}
	h.chunks = append(h.chunks, delayChunk{at: time.Now().Add(h.delay), data: append([]byte(nil), b...)})
	h.cond.Broadcast()
	return len(b), nil
}

func (h *delayHalf) Read(b []byte) (int, error) {
	h.mu.Lock()
	for len(h.chunks) == 0 {
		if h.closed {
			h.mu.Unlock()
			return 0, io.EOF
		}
		h.cond.Wait()
	}
	c := &h.chunks[0]
	if wait := time.Until(c.at); wait > 0 {
		h.mu.Unlock()
		time.Sleep(wait)
		h.mu.Lock()
		c = &h.chunks[0]
	}
	n := copy(b, c.data)
	c.data = c.data[n:]
	if len(c.data) == 0 {
		h.chunks = h.chunks[1:]
	}
	h.mu.Unlock()
	return n, nil
}

func (h *delayHalf) Close() error {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
	return nil
}

type delayDuplex struct {
	r, w *delayHalf
}

func (d delayDuplex) Read(b []byte) (int, error)  { return d.r.Read(b) }
func (d delayDuplex) Write(b []byte) (int, error) { return d.w.Write(b) }
func (d delayDuplex) Close() error                { d.r.Close(); return d.w.Close() }

// latencyPipe returns two framed channels joined by links with a one-way
// delay of d each direction.
func latencyPipe(d time.Duration) (*transport.Conn, *transport.Conn, io.Closer) {
	ab, ba := newDelayHalf(d), newDelayHalf(d)
	a := delayDuplex{r: ba, w: ab}
	bb := delayDuplex{r: ab, w: ba}
	return transport.New(a), transport.New(bb), a
}

// BenchmarkSessionPipeline measures cross-inference pipelining: the same
// multi-inference session workload with the in-flight window at depth 1
// (serial — the garbler idles for a full output-label round-trip plus
// the server's evaluation tail between inferences) and depth 2
// (inference k+1 garbles and starts evaluating while inference k
// finishes). The OT pool is on in both modes so input batches are
// derandomization-only and the overlap is not hidden behind inline IKNP.
// Two link models isolate the two gains: "cpu" (zero-latency pipe) shows
// the compute overlap — garble(k+1), eval(k), and eval(k+1) on separate
// cores, so the win appears from ~4 cores up and a single-core host runs
// within noise — while "wan" (25 ms one-way link, small model) shows the
// round-trip hiding, which holds on any core count: serially each
// inference pays its OT exchanges plus a dead output round-trip, while
// depth 2 garbles the next inference into that gap. Results are
// committed as BENCH_session.json.
func BenchmarkSessionPipeline(b *testing.B) {
	cpuNet, err := nn.NewNetwork(nn.Vec(64),
		nn.NewDense(24),
		nn.NewActivation(act.ReLU),
		nn.NewDense(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	cpuNet.InitWeights(rand.New(rand.NewSource(91)))
	wanNet, err := nn.NewNetwork(nn.Vec(6),
		nn.NewDense(5),
		nn.NewActivation(act.ReLU),
		nn.NewDense(4),
	)
	if err != nil {
		b.Fatal(err)
	}
	wanNet.InitWeights(rand.New(rand.NewSource(93)))

	links := []struct {
		name  string
		net   *nn.Network
		inLen int
		k     int
		delay time.Duration
	}{
		{"cpu", cpuNet, 64, 6, 0},
		{"wan", wanNet, 6, 8, 25 * time.Millisecond},
	}
	pool := precomp.PoolConfig{Capacity: 1 << 16, RefillLowWater: 1 << 14, Background: true}
	for _, link := range links {
		link := link
		rng := rand.New(rand.NewSource(92))
		xs := make([][]float64, link.k)
		for i := range xs {
			xs[i] = make([]float64, link.inLen)
			for j := range xs[i] {
				xs[i][j] = rng.Float64()*2 - 1
			}
		}
		for _, depth := range []int{1, 2} {
			depth := depth
			b.Run(fmt.Sprintf("%s/depth=%d", link.name, depth), func(b *testing.B) {
				cfg := core.EngineConfig{Pipeline: depth}
				srv := &core.Server{Net: link.net, Fmt: fixed.Default, Engine: cfg, OTPool: pool}
				if err := srv.Precompile(); err != nil {
					b.Fatal(err)
				}
				cli := &core.Client{Engine: cfg}
				var maxInFlight int64
				var overlap time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var cConn, sConn *transport.Conn
					var closer io.Closer
					if link.delay > 0 {
						cConn, sConn, closer = latencyPipe(link.delay)
					} else {
						cConn, sConn, closer = transport.Pipe()
					}
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						st, err := srv.ServeSession(sConn)
						if err != nil {
							b.Error(err)
							// Unblock the client side so a server-side
							// regression fails the bench instead of
							// wedging it.
							closer.Close()
							return
						}
						if st.MaxInFlight > maxInFlight {
							maxInFlight = st.MaxInFlight
						}
						overlap += st.OverlapTime
					}()
					if _, _, err := cli.InferMany(cConn, xs); err != nil {
						closer.Close()
						b.Fatal(err)
					}
					wg.Wait()
					closer.Close()
				}
				b.ReportMetric(float64(link.k*b.N)/b.Elapsed().Seconds(), "inf/s")
				b.ReportMetric(float64(maxInFlight), "peakInFlight")
				b.ReportMetric(overlap.Seconds()*1e3/float64(link.k*b.N), "overlapMs/inf")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			})
		}
	}
}

// BenchmarkSessionBatch measures vectorized batch inference (protocol
// v5): one InferBatch call fuses B samples into a single schedule walk,
// one interleaved table stream, and one OT derandomization exchange per
// input step — versus B=1, which pays the full protocol machinery per
// sample. Two link models isolate the two gains: "cpu" (zero-latency
// pipe) shows the amortized schedule walk and per-inference overheads,
// while "wan" (25 ms one-way link, small model) shows the OT and output
// round-trip amortization, which holds on any core count — serially B
// samples pay B× the per-inference round-trips, while a batch pays them
// once (the ≥1.5× B=16-vs-B=1 acceptance row). Every iteration includes
// session setup, which the batch also amortizes. Results are committed
// as BENCH_batch.json.
func BenchmarkSessionBatch(b *testing.B) {
	cpuNet, err := nn.NewNetwork(nn.Vec(64),
		nn.NewDense(24),
		nn.NewActivation(act.ReLU),
		nn.NewDense(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	cpuNet.InitWeights(rand.New(rand.NewSource(95)))
	wanNet, err := nn.NewNetwork(nn.Vec(6),
		nn.NewDense(5),
		nn.NewActivation(act.ReLU),
		nn.NewDense(4),
	)
	if err != nil {
		b.Fatal(err)
	}
	wanNet.InitWeights(rand.New(rand.NewSource(96)))

	links := []struct {
		name  string
		net   *nn.Network
		inLen int
		delay time.Duration
	}{
		{"cpu", cpuNet, 64, 0},
		{"wan", wanNet, 6, 25 * time.Millisecond},
	}
	pool := precomp.PoolConfig{Capacity: 1 << 16, RefillLowWater: 1 << 14, Background: true}
	for _, link := range links {
		link := link
		rng := rand.New(rand.NewSource(97))
		xs := make([][]float64, 16)
		for i := range xs {
			xs[i] = make([]float64, link.inLen)
			for j := range xs[i] {
				xs[i][j] = rng.Float64()*2 - 1
			}
		}
		for _, batch := range []int{1, 4, 16} {
			batch := batch
			b.Run(fmt.Sprintf("%s/B=%d", link.name, batch), func(b *testing.B) {
				cfg := core.EngineConfig{MaxBatch: batch}
				srv := &core.Server{Net: link.net, Fmt: fixed.Default, Engine: cfg, OTPool: pool}
				if err := srv.Precompile(); err != nil {
					b.Fatal(err)
				}
				cli := &core.Client{Engine: cfg}
				var otExchanges int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var cConn, sConn *transport.Conn
					var closer io.Closer
					if link.delay > 0 {
						cConn, sConn, closer = latencyPipe(link.delay)
					} else {
						cConn, sConn, closer = transport.Pipe()
					}
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						st, err := srv.ServeSession(sConn)
						if err != nil {
							b.Error(err)
							// Unblock the client side so a server-side
							// regression fails the bench instead of
							// wedging it.
							closer.Close()
							return
						}
						otExchanges += st.OTBatches
					}()
					if _, _, err := cli.InferBatch(cConn, xs[:batch]); err != nil {
						closer.Close()
						b.Fatal(err)
					}
					wg.Wait()
					closer.Close()
				}
				b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "inf/s")
				b.ReportMetric(float64(otExchanges)/float64(batch*b.N), "otExchanges/inf")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			})
		}
	}
}

// BenchmarkSessionOffline measures the garble-ahead execution bank: the
// offline/online split extended from OTs to whole inferences, on a 25 ms
// WAN model. Session setup — handshake, OT base phase, the pool's bulk
// OT fill, and the bank fill (Session.FillBank) — runs outside the
// timer: that is the offline phase the bank exists to absorb. The timed
// region is the online path only: with a warm bank it is input-label
// selection, stream writes from the bank, and the OT derandomization
// exchanges; bank-off it additionally garbles every gate live. The OT
// pool is sized to cover a whole iteration so no refill crypto lands in
// the timed region; every inference issues its OT requests in one
// flight, which is what the bank makes matter (once garbling is gone,
// the OT exchange is the dominant online step). B=1 runs four pipelined single
// inferences per iteration; B=16 one fused batch. The ≥2× bankWarm vs
// bankOff acceptance row at B=1 and the ~0 onlineGarbleMs/inf for bank
// hits are committed as BENCH_offline.json.
func BenchmarkSessionOffline(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(64),
		nn.NewDense(24),
		nn.NewActivation(act.ReLU),
		nn.NewDense(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(98)))
	const delay = 25 * time.Millisecond
	rng := rand.New(rand.NewSource(99))
	xs := make([][]float64, 16)
	for i := range xs {
		xs[i] = make([]float64, 64)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	for _, mode := range []struct {
		name string
		bank bool
	}{
		{"bankOff", false},
		{"bankWarm", true},
	} {
		mode := mode
		for _, batch := range []int{1, 16} {
			batch := batch
			b.Run(fmt.Sprintf("%s/B=%d", mode.name, batch), func(b *testing.B) {
				k := 4 // B=1: pipelined singles per iteration
				if batch > 1 {
					k = batch
				}
				// Covers an iteration's full OT demand (k × weight bits)
				// in the setup fill; low water 1 so nothing triggers a
				// mid-session refill into the timed region.
				pool := precomp.PoolConfig{Capacity: 1 << 19, RefillLowWater: 1}
				srvCfg := core.EngineConfig{Pipeline: 2, MaxBatch: batch}
				srv := &core.Server{Net: net, Fmt: fixed.Default, Engine: srvCfg, OTPool: pool}
				if err := srv.Precompile(); err != nil {
					b.Fatal(err)
				}
				cliCfg := core.EngineConfig{Pipeline: 2, MaxBatch: batch}
				if mode.bank {
					cliCfg.Bank = bank.Config{Depth: k, LowWater: 1}
				}
				cli := &core.Client{Engine: cliCfg}
				defer cli.Close()
				var gate, refill time.Duration
				var hits, misses int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					cConn, sConn, closer := latencyPipe(delay)
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := srv.ServeSession(sConn); err != nil {
							b.Error(err)
							// Unblock the client side so a server-side
							// regression fails the bench instead of
							// wedging it.
							closer.Close()
						}
					}()
					sess, err := cli.NewSession(cConn)
					if err != nil {
						closer.Close()
						b.Fatal(err)
					}
					if err := sess.FillBank(); err != nil {
						closer.Close()
						b.Fatal(err)
					}
					b.StartTimer()
					if batch == 1 {
						ps := make([]*core.PendingInference, 0, k)
						for j := 0; j < k; j++ {
							p, err := sess.InferAsync(xs[j])
							if err != nil {
								closer.Close()
								b.Fatal(err)
							}
							ps = append(ps, p)
						}
						for _, p := range ps {
							if _, _, err := p.Wait(); err != nil {
								closer.Close()
								b.Fatal(err)
							}
						}
					} else if _, _, err := sess.InferBatch(xs[:batch]); err != nil {
						closer.Close()
						b.Fatal(err)
					}
					b.StopTimer()
					st := sess.Stats()
					gate += st.GateTime
					refill += st.BankRefillTime
					hits += st.BankHits
					misses += st.BankMisses
					if err := sess.Close(); err != nil {
						b.Fatal(err)
					}
					wg.Wait()
					closer.Close()
					b.StartTimer()
				}
				b.StopTimer()
				inf := float64(k * b.N)
				b.ReportMetric(inf/b.Elapsed().Seconds(), "inf/s")
				b.ReportMetric(gate.Seconds()*1e3/inf, "onlineGarbleMs/inf")
				b.ReportMetric(refill.Seconds()*1e3/inf, "offlineGarbleMs/inf")
				b.ReportMetric(float64(hits)/inf, "bankHits/inf")
				b.ReportMetric(float64(misses)/inf, "bankMisses/inf")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
			})
		}
	}
}

func nowNs() int64 { return time.Now().UnixNano() }

// BenchmarkInstrumentationOverhead pins the acceptance bound on the
// internal/obs metrics layer: the BenchmarkSessionBatch cpu/B=16
// workload with recording on (the default) versus off. Spans read the
// monotonic clock in both modes — core.Stats is backfilled from the
// same span durations, so the clock reads are part of the product, not
// the instrumentation — which makes the off mode isolate exactly what
// the registry adds: the atomic counter and histogram writes.
//
// Run-to-run noise of this workload on a loaded single-core host (~±10%,
// dominated by background-OT-refill scheduling) swamps a sub-2% effect
// in independent on-vs-off runs, so two things differ from the batch
// bench proper: each iteration measures a PAIR — one metrics-on and one
// metrics-off session back to back, order alternating per iteration to
// cancel drift and order bias — and the pool refill runs synchronously
// (Background: false) so the refill crypto lands at a deterministic
// point instead of racing the critical path; the refill instrumentation
// is still exercised, just inline. The overhead_pct metric is the
// paired on-vs-off delta; the committed BENCH_engine.json row asserts
// it stays under 2%.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	net, err := nn.NewNetwork(nn.Vec(64),
		nn.NewDense(24),
		nn.NewActivation(act.ReLU),
		nn.NewDense(8),
	)
	if err != nil {
		b.Fatal(err)
	}
	net.InitWeights(rand.New(rand.NewSource(95)))
	rng := rand.New(rand.NewSource(97))
	const batch = 16
	xs := make([][]float64, batch)
	for i := range xs {
		xs[i] = make([]float64, 64)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	pool := precomp.PoolConfig{Capacity: 1 << 16, RefillLowWater: 1 << 14, Background: false}
	cfg := core.EngineConfig{MaxBatch: batch}
	srv := &core.Server{Net: net, Fmt: fixed.Default, Engine: cfg, OTPool: pool}
	if err := srv.Precompile(); err != nil {
		b.Fatal(err)
	}
	cli := &core.Client{Engine: cfg}
	oneSession := func() (wall, cpu time.Duration) {
		// Start every session from a collected heap: the workload
		// allocates ~1.5 GB/session, and whichever session a GC cycle
		// happens to land in otherwise absorbs its whole cost — ±15%
		// per-session noise that buries the effect being measured.
		runtime.GC()
		cConn, sConn, closer := transport.Pipe()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.ServeSession(sConn); err != nil {
				b.Error(err)
				closer.Close()
			}
		}()
		c0 := processCPUTime()
		t0 := time.Now()
		if _, _, err := cli.InferBatch(cConn, xs[:batch]); err != nil {
			closer.Close()
			b.Fatal(err)
		}
		wg.Wait()
		wall = time.Since(t0)
		cpu = processCPUTime() - c0
		closer.Close()
		return wall, cpu
	}
	defer obs.SetEnabled(true)
	var onNs, offNs, onCPU, offCPU int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2; k++ {
			on := (i+k)%2 == 0
			obs.SetEnabled(on)
			wall, cpu := oneSession()
			if on {
				onNs += int64(wall)
				onCPU += int64(cpu)
			} else {
				offNs += int64(wall)
				offCPU += int64(cpu)
			}
		}
	}
	b.ReportMetric(float64(2*batch*b.N)/b.Elapsed().Seconds(), "inf/s")
	b.ReportMetric(float64(onNs)/float64(b.N), "on_ns/session")
	b.ReportMetric(float64(offNs)/float64(b.N), "off_ns/session")
	if offNs > 0 {
		b.ReportMetric(100*(float64(onNs)-float64(offNs))/float64(offNs), "overhead_pct")
	}
	if offCPU > 0 {
		// The clean signal: CPU seconds consumed by the whole process per
		// session (both parties + GC), which the host's wall-clock
		// scheduling jitter cannot touch.
		b.ReportMetric(100*(float64(onCPU)-float64(offCPU))/float64(offCPU), "cpu_overhead_pct")
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}
