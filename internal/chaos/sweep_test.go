package chaos

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/core"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/server"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// The chaos sweep: a real TCP server with every robustness feature on
// (pipelining, batching, banked clients, issue-all OT, admission,
// idle timeout, phase deadlines), driven through ≥50 seeded fault
// scripts. The contract it pins is the failure-behavior half of the
// paper's guarantee: whatever the network does — resets, bit-flips,
// partial writes, latency, shaping — every run terminates promptly in
// either a clean error or a provably correct output. Never a hang,
// never a leaked goroutine, never a silently wrong label, and never a
// panic (deepsecure_panics_total stays flat under pure network faults).

const sweepRunBudget = 30 * time.Second // per-run hard termination bound

func sweepNet(t testing.TB) *nn.Network {
	t.Helper()
	model, err := nn.NewNetwork(nn.Vec(6),
		nn.NewDense(5),
		nn.NewActivation(act.ReLU),
		nn.NewDense(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	model.InitWeights(rand.New(rand.NewSource(7)))
	return model
}

func TestChaosSweep(t *testing.T) {
	seeds := 64
	if testing.Short() {
		seeds = 12
	}
	checkLeaks := testutil.VerifyNoLeaks(t)
	panics0 := obs.PanicCount()

	f := fixed.Default
	model := sweepNet(t)
	srv, err := server.New(model, f,
		server.WithEngine(core.EngineConfig{
			Workers: 2,
			Deadlines: core.DeadlineConfig{
				Handshake: 10 * time.Second,
				OTSetup:   10 * time.Second,
				Inference: 10 * time.Second,
			},
		}),
		server.WithOTPool(precomp.PoolConfig{Capacity: 512}),
		server.WithIdleTimeout(2*time.Second),
		server.WithAdmission(server.AdmissionConfig{
			MaxActive:   4,
			MaxQueue:    16,
			RetryAfter:  50 * time.Millisecond,
			ShedTimeout: time.Second,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		srv.Serve(ln)
	}()
	addr := ln.Addr().String()

	// Fault offsets should be able to land anywhere in a session's table
	// stream, not just the handshake.
	ands, _ := srv.ProgramStats()
	span := ands * 32 * 3

	// One plain client and one garble-ahead client, both on the shared
	// scheduler; nil Rng (crypto/rand) so sessions may run concurrently.
	plain := &core.Client{Engine: core.EngineConfig{
		Workers:   2,
		Deadlines: core.DeadlineConfig{Handshake: 10 * time.Second},
	}}
	banked := &core.Client{Engine: core.EngineConfig{
		Workers:   2,
		Bank:      bank.Config{Depth: 2},
		Deadlines: core.DeadlineConfig{Handshake: 10 * time.Second},
	}}

	// Correctness oracle: a chaos run may end in an error at any point,
	// but any label it *does* deliver must match the plaintext model.
	sampleFor := func(seed int64, i int) []float64 {
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		return x
	}

	var successes, cleanErrors, forced atomic.Int64
	runOne := func(seed int64) {
		script := NewScript(seed, span)
		start := time.Now()
		defer func() {
			if d := time.Since(start); d > sweepRunBudget {
				t.Errorf("seed %d: run took %v (budget %v) — a fault script must never stall a session: %v",
					seed, d, sweepRunBudget, script)
			}
		}()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Errorf("seed %d: dial: %v", seed, err)
			return
		}
		cc := Wrap(nc, script)
		defer cc.Close()
		// Client-side backstop: if neither party's deadlines fire (e.g. a
		// flipped length field leaves both sides waiting), the run still
		// terminates — in a clean error — rather than hanging the sweep.
		backstop := time.AfterFunc(15*time.Second, func() {
			forced.Add(1)
			cc.Close()
		})
		defer backstop.Stop()

		cli := plain
		if seed%3 == 2 {
			cli = banked
		}
		tc := transport.New(cc)
		tc.SetBreaker(cc.Close)
		sess, err := cli.NewSession(tc)
		if err != nil {
			cleanErrors.Add(1)
			return
		}
		failed := false
		if seed%3 == 1 {
			// Batched variant: one fused batch of 3 samples.
			xs := make([][]float64, 3)
			want := make([]int, 3)
			for i := range xs {
				xs[i] = sampleFor(seed, i)
				want[i] = model.PredictFixed(f, xs[i])
			}
			got, _, err := sess.InferBatch(xs)
			if err != nil {
				failed = true
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("seed %d: SILENT CORRUPTION: batch sample %d label %d, plaintext %d (%v)",
							seed, i, got[i], want[i], script)
					}
				}
			}
		} else {
			// Pipelined singles (plain or banked client).
			for i := 0; i < 3 && !failed; i++ {
				x := sampleFor(seed, i)
				want := model.PredictFixed(f, x)
				got, _, err := sess.Infer(x)
				if err != nil {
					failed = true
					break
				}
				if got != want {
					t.Errorf("seed %d: SILENT CORRUPTION: inference %d label %d, plaintext %d (%v)",
						seed, i, got, want, script)
				}
			}
		}
		if err := sess.Close(); err != nil {
			failed = true
		}
		if failed {
			cleanErrors.Add(1)
		} else {
			successes.Add(1)
		}
	}

	var wg sync.WaitGroup
	work := make(chan int64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range work {
				runOne(seed)
			}
		}()
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		work <- seed
	}
	close(work)
	wg.Wait()

	srv.Close()
	<-serveDone
	ln.Close()

	t.Logf("chaos sweep: %d seeds, %d succeeded, %d clean errors, %d backstop closes",
		seeds, successes.Load(), cleanErrors.Load(), forced.Load())
	if got := successes.Load() + cleanErrors.Load(); got != int64(seeds) {
		t.Errorf("accounted for %d of %d runs", got, seeds)
	}
	if successes.Load() == 0 {
		// Scripts with late offsets or delay-only faults must leave some
		// sessions able to finish; all-errors means the harness (not the
		// faults) is broken.
		t.Errorf("no chaos run succeeded — harness broken?")
	}
	if dp := obs.PanicCount() - panics0; dp != 0 {
		t.Errorf("network faults caused %d recovered panic(s); faults must surface as errors, not panics", dp)
	}
	checkLeaks()
}
