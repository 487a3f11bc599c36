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

// specPools are the OT policies the issued-flight tests run under: a
// roomy pool, a tiny one whose mid-session refills go through the
// drain barrier, and the pool off (every request a direct-IKNP U
// matrix).
var specPools = []struct {
	name string
	cfg  precomp.PoolConfig
}{
	{"poolOn", precomp.PoolConfig{Capacity: 8192, RefillLowWater: 512}},
	{"tiny", precomp.PoolConfig{Capacity: 64, RefillLowWater: 16}},
	{"poolOff", precomp.PoolConfig{}},
}

// specSessionRun runs a full pipelined session and returns the
// inference labels.
func specSessionRun(t *testing.T, net *nn.Network, xs [][]float64, poolCfg precomp.PoolConfig, depth int, cliSeed, srvSeed int64) []int {
	t.Helper()
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048, Pipeline: depth}
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(srvSeed)), Engine: cfg, OTPool: poolCfg}
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

// TestSpeculativeOTSessionConformance pins issued-flight OT consumption
// end to end: every inference issues all of its evaluator-input steps'
// OT requests in one flight and releases the pool turn at once, and the
// labels must match the plaintext reference across pipeline depths and
// OT policies (the tiny pool forces mid-session refills through the
// drain barrier; pool off issues direct-IKNP U matrices). The client
// needs no configuration: its sender loop answers requests at its own
// pace.
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
	// One flight needs multiple evaluator-input steps to be more than a
	// single exchange; make sure the test net actually provides them.
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := evalInputSteps(prog.Schedule); n < 2 {
		t.Fatalf("test net schedules %d evaluator-input steps; need >= 2 to exercise issue-all", n)
	}
	for _, pc := range specPools {
		t.Run(pc.name, func(t *testing.T) {
			for _, depth := range []int{1, 2, 3} {
				labels := specSessionRun(t, net, xs, pc.cfg, depth, 9931, 9932)
				for i := range xs {
					if labels[i] != want[i] {
						t.Fatalf("depth %d sample %d: label %d, plaintext %d", depth, i, labels[i], want[i])
					}
				}
			}
		})
	}
}

// TestSpeculativeOTBatch runs a batched inference with the pool on and
// off: the batch issues its ×B-expanded requests in one flight and must
// still decode every sample correctly.
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
	for _, pc := range []struct {
		name string
		cfg  precomp.PoolConfig
	}{{"poolOn", precomp.PoolConfig{Capacity: 4096}}, {"poolOff", precomp.PoolConfig{}}} {
		t.Run(pc.name, func(t *testing.T) {
			cConn, sConn, closer := transport.Pipe()
			defer closer.Close()
			srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(147)),
				Engine: EngineConfig{Workers: 1}, OTPool: pc.cfg}
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
		})
	}
}

// TestSpeculativeMidOTDisconnectTerminates is the issued-flight analogue
// of TestPipelineMidOTDisconnectTerminates: the client vanishes while
// inference 1 is parked in Collect (its requests issued, the response
// never sent) and inference 2 is parked behind it in the ticket gate.
// Teardown must Abort the pool's collect state — not just the turn
// sequencer — or the parked collectors never wake and ServeSession
// hangs. Pool on, the first request is a correction frame; pool off, a
// U matrix.
func TestSpeculativeMidOTDisconnectTerminates(t *testing.T) {
	for _, pc := range []struct {
		name  string
		cfg   precomp.PoolConfig
		first transport.MsgType
	}{
		{"poolOn", precomp.PoolConfig{Capacity: 4096}, transport.MsgOTDerandC},
		{"poolOff", precomp.PoolConfig{}, transport.MsgOTExtU},
	} {
		t.Run(pc.name, func(t *testing.T) {
			midOTDisconnect(t, pc.cfg, pc.first)
		})
	}
}

func midOTDisconnect(t *testing.T, poolCfg precomp.PoolConfig, first transport.MsgType) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 150)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048, Pipeline: 2}
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(151)), Engine: cfg, OTPool: poolCfg}
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
	// Wait until inference 1's requests are on the wire — its context is
	// now parked in Collect — then disconnect without answering.
	for {
		typ, _, err := cConn.ReadFrame()
		if err != nil {
			t.Fatalf("reading server frames: %v", err)
		}
		if typ == first {
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

// TestOTFlightSmallSocketBuffers runs a batched inference over a pipe
// that, like a socket buffer, holds at most 4 KiB unread per direction.
// The garbler reads a step's request only when its walk reaches the
// step, and until then streams tables the evaluator must keep reading;
// an evaluator that blocked writing later steps' requests ahead of time
// would wedge both directions. Pool on the requests are 1-bit-per-OT
// corrections, pool off 16-byte-per-OT U matrices; either way only
// flightCap bytes, frame headers included, may go out ahead. The wide
// model's later evaluator-input steps need far more request bytes than
// the pipe holds; the deep one has many small steps, so many frames.
func TestOTFlightSmallSocketBuffers(t *testing.T) {
	wide, err := nn.NewNetwork(nn.Vec(4),
		nn.NewDense(4),
		nn.NewActivation(act.ReLU),
		nn.NewDense(32),
		nn.NewActivation(act.ReLU),
		nn.NewDense(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	deepLayers := []nn.Layer{}
	for i := 0; i < 8; i++ {
		deepLayers = append(deepLayers, nn.NewDense(2), nn.NewActivation(act.ReLU))
	}
	deep, err := nn.NewNetwork(nn.Vec(4), append(deepLayers, nn.NewDense(2))...)
	if err != nil {
		t.Fatal(err)
	}
	for mi, mc := range []struct {
		name  string
		model *nn.Network
	}{{"wide", wide}, {"deep", deep}} {
		model := mc.model
		model.InitWeights(rand.New(rand.NewSource(int64(160 + 2*mi))))
		rng := rand.New(rand.NewSource(int64(161 + 2*mi)))
		xs := make([][]float64, 16)
		for i := range xs {
			xs[i] = make([]float64, 4)
			for j := range xs[i] {
				xs[i][j] = rng.Float64()*2 - 1
			}
		}
		for _, pc := range []struct {
			name string
			cfg  precomp.PoolConfig
		}{{"poolOn", precomp.PoolConfig{Capacity: 1 << 16}}, {"poolOff", precomp.PoolConfig{}}} {
			t.Run(mc.name+"/"+pc.name, func(t *testing.T) {
				gToE, eToG := newLogHalf(), newLogHalf()
				gToE.limit, eToG.limit = 4<<10, 4<<10
				defer gToE.close()
				defer eToG.close()
				srv := &Server{Net: model, Fmt: fixed.Default, Engine: EngineConfig{Workers: 1}, OTPool: pc.cfg}
				srvDone := make(chan error, 1)
				go func() {
					_, err := srv.ServeSession(transport.New(logDuplex{r: gToE, w: eToG}))
					srvDone <- err
				}()
				type result struct {
					labels []int
					err    error
				}
				cliDone := make(chan result, 1)
				go func() {
					cli := &Client{Engine: EngineConfig{Workers: 1}}
					labels, _, err := cli.InferBatch(transport.New(logDuplex{r: eToG, w: gToE}), xs)
					cliDone <- result{labels, err}
				}()
				select {
				case r := <-cliDone:
					if r.err != nil {
						t.Fatalf("client: %v", r.err)
					}
					for i, x := range xs {
						if want := model.PredictFixed(fixed.Default, x); r.labels[i] != want {
							t.Fatalf("sample %d: label %d, plaintext %d", i, r.labels[i], want)
						}
					}
				case <-time.After(60 * time.Second):
					t.Fatal("batched inference wedged over 4 KiB buffers")
				}
				if err := <-srvDone; err != nil {
					t.Fatalf("server: %v", err)
				}
			})
		}
	}
}
