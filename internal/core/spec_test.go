package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// specSessionRun runs a full session with SpeculativeOT set on the
// server and returns the inference labels.
func specSessionRun(t *testing.T, net *nn.Network, xs [][]float64, poolCfg precomp.PoolConfig, depth int, spec bool, cliSeed, srvSeed int64) []int {
	t.Helper()
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048, Pipeline: depth}
	srvCfg := cfg
	srvCfg.SpeculativeOT = spec
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(srvSeed)), Engine: srvCfg, OTPool: poolCfg}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(cliSeed)), Engine: cfg}
	labels, _, err := cli.InferMany(cConn, xs)
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return labels
}

// TestSpeculativeOTSessionConformance pins the speculative-consumption
// acceptance criterion end to end: with SpeculativeOT on the server —
// every inference's derandomization corrections issued in one flight at
// its first evaluator step, pool turn released immediately — the labels
// must match both the plaintext reference and the strict-order run,
// across pipeline depths and pool policies (the tiny pool forces
// mid-session refills through the speculative drain barrier). The
// client needs no configuration: its sender loop already drains
// corrections at its own pace.
func TestSpeculativeOTSessionConformance(t *testing.T) {
	net := testNet(t, act.ReLU, 141)
	f := fixed.Default
	rng := rand.New(rand.NewSource(142))
	xs := make([][]float64, 6)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(f, xs[i])
	}
	// The speculation needs multiple evaluator-input steps to be more
	// than a rename; make sure the test net actually provides them.
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	evalSteps := 0
	for i := range prog.Schedule.Steps {
		st := &prog.Schedule.Steps[i]
		if st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator {
			evalSteps++
		}
	}
	if evalSteps < 2 {
		t.Fatalf("test net schedules %d evaluator-input steps; need >= 2 to exercise speculation", evalSteps)
	}
	for name, poolCfg := range map[string]precomp.PoolConfig{
		"poolOn": {Capacity: 8192, RefillLowWater: 512},
		"tiny":   {Capacity: 64, RefillLowWater: 16},
	} {
		t.Run(name, func(t *testing.T) {
			for _, depth := range []int{2, 3} {
				specLabels := specSessionRun(t, net, xs, poolCfg, depth, true, 9931, 9932)
				strictLabels := specSessionRun(t, net, xs, poolCfg, depth, false, 9931, 9932)
				for i := range xs {
					if specLabels[i] != want[i] {
						t.Fatalf("depth %d sample %d: speculative label %d, plaintext %d", depth, i, specLabels[i], want[i])
					}
					if specLabels[i] != strictLabels[i] {
						t.Fatalf("depth %d sample %d: speculative label %d, strict-order label %d", depth, i, specLabels[i], strictLabels[i])
					}
				}
			}
		})
	}
}

// TestSpeculativeOTBatch runs a batched inference against a speculative
// server: the batch issues its ×B-expanded corrections in one flight
// and must still decode every sample correctly.
func TestSpeculativeOTBatch(t *testing.T) {
	net := testNet(t, act.ReLU, 145)
	f := fixed.Default
	rng := rand.New(rand.NewSource(146))
	xs := make([][]float64, 4)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(f, xs[i])
	}
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(147)),
		Engine: EngineConfig{Workers: 1, SpeculativeOT: true},
		OTPool: precomp.PoolConfig{Capacity: 4096}}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(148)), Engine: EngineConfig{Workers: 1}}
	labels, _, err := cli.InferBatch(cConn, xs)
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	for i := range xs {
		if labels[i] != want[i] {
			t.Fatalf("sample %d: batch label %d, plaintext %d", i, labels[i], want[i])
		}
	}
}

// TestSpeculativeMidOTDisconnectTerminates is the speculative analogue
// of TestPipelineMidOTDisconnectTerminates: the client vanishes while
// inference 1 is parked in Collect (its corrections issued, the
// response never sent) and inference 2 is parked behind it in the
// ticket gate. Teardown must Abort the pool's speculative state — not
// just the turn sequencer — or the parked collectors never wake and
// ServeSession hangs.
func TestSpeculativeMidOTDisconnectTerminates(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 150)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048, Pipeline: 2}
	srvCfg := cfg
	srvCfg.SpeculativeOT = true
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(151)), Engine: srvCfg,
		OTPool: precomp.PoolConfig{Capacity: 4096}}
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		done <- err
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(152)), Engine: cfg}
	if _, err := cli.NewSession(cConn); err != nil {
		t.Fatalf("open session: %v", err)
	}
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if err := cConn.Send(transport.MsgBatchBegin, beginPayload(id, 1)); err != nil {
			t.Fatal(err)
		}
		if err := cConn.SendTagged(transport.MsgBatchConst, id, make([]byte, 2*gc.LabelSize)); err != nil {
			t.Fatal(err)
		}
	walk:
		for i := range prog.Schedule.Steps {
			st := &prog.Schedule.Steps[i]
			switch {
			case st.Kind == circuit.StepInputs && st.Party == circuit.Garbler:
				if err := cConn.SendTagged(transport.MsgBatchInputs, id, make([]byte, len(st.Wires)*gc.LabelSize)); err != nil {
					t.Fatal(err)
				}
			case st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator:
				break walk
			default:
				t.Fatalf("test net schedules step %d (%v) before the first evaluator-input step", i, st.Kind)
			}
		}
	}
	if err := cConn.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until inference 1's speculative corrections are on the wire —
	// its context is now parked in Collect — then disconnect without
	// answering.
	for {
		typ, _, err := cConn.ReadFrame()
		if err != nil {
			t.Fatalf("reading server frames: %v", err)
		}
		if typ == transport.MsgOTDerandC {
			break
		}
	}
	closer.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mid-inference disconnect should surface as a session error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ServeSession did not terminate after a mid-OT disconnect")
	}
	checkLeaks()
}
