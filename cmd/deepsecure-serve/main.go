// deepsecure-serve is the long-lived secure-inference daemon: it compiles
// the model's GC netlist once, then serves concurrent multi-inference
// sessions over TCP until interrupted.
//
//	deepsecure-serve -listen :9090 -model b3
//
// Clients connect with deepsecure.OpenSession / deepsecure.InferMany (or
// the deepsecure-demo client for a quick smoke test) and run any number
// of inferences per connection; the handshake, OT base phase, and netlist
// generation are paid once per session, and the compiled tape is shared
// read-only across all sessions. SIGINT/SIGTERM triggers a graceful
// drain; a second signal force-closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"deepsecure"
	"deepsecure/internal/benchmarks"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/sched"
)

func buildModel(name string) (*nn.Network, error) {
	switch name {
	case "b1":
		return benchmarks.B1()
	case "b2":
		return benchmarks.B2()
	case "b3":
		return benchmarks.B3()
	case "b4":
		return benchmarks.B4()
	case "small":
		return nn.NewNetwork(nn.Vec(32),
			deepsecure.NewDense(16),
			deepsecure.NewActivation(deepsecure.TanhCORDIC),
			deepsecure.NewDense(4),
		)
	default:
		return nil, fmt.Errorf("unknown model %q (want b1|b2|b3|b4|small)", name)
	}
}

func main() {
	listen := flag.String("listen", ":9090", "listen address")
	model := flag.String("model", "small", "b1|b2|b3|b4|small")
	seed := flag.Int64("seed", 1, "weight-initialization seed")
	statsEvery := flag.Duration("stats", time.Minute, "stats log interval (0 disables)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	workers := flag.Int("workers", 0, "engine workers per session (0 = GOMAXPROCS, 1 = sequential)")
	chunkKB := flag.Int("chunk-kb", 0, "garbled-table streaming chunk in KiB (0 = default 1024)")
	pipeline := flag.Int("pipeline", 0, "in-flight inferences per session (0 = default 2, 1 = serial)")
	maxBatch := flag.Int("max-batch", 0, "samples per fused batched inference (0 = default 32)")
	idle := flag.Duration("idle-timeout", 2*time.Minute, "per-session idle read deadline (0 disables)")
	otPool := flag.Int("ot-pool", 1<<16, "random-OT pool capacity per session (0 = no precomputation, IKNP online)")
	otLowWater := flag.Int("ot-low-water", 0, "refill the OT pool when fewer remain (0 = capacity/4)")
	otBackground := flag.Bool("ot-background", true, "precompute OT refills on a background goroutine")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /debug/stats (JSON) on this address (empty disables)")
	pprofOn := flag.Bool("pprof", false, "also mount net/http/pprof under /debug/pprof/ on the metrics address")
	maxSessions := flag.Int("max-sessions", 0, "admission control: max concurrent sessions in the protocol (0 disables admission)")
	maxQueue := flag.Int("max-queue", 0, "admission control: max sessions waiting for a slot before new arrivals are shed")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second, "admission control: max wait in the queue before a session is shed")
	retryAfter := flag.Duration("retry-after", time.Second, "admission control: backoff hint sent with busy responses")
	maxP99 := flag.Duration("max-p99", 0, "admission control: shed new sessions while the windowed inference p99 exceeds this (0 disables the latency guard)")
	shedTimeout := flag.Duration("shed-timeout", 0, "admission control: bound on the shed handshake with a refused client (0 = default 2s)")
	handshakeTimeout := flag.Duration("handshake-timeout", 0, "per-session handshake deadline (0 disables)")
	otSetupTimeout := flag.Duration("ot-setup-timeout", 0, "per-session OT-setup deadline (0 disables)")
	inferTimeout := flag.Duration("infer-timeout", 0, "per-inference deadline, fused batches included (0 disables)")
	flag.Parse()

	// Negative tuning values are configuration mistakes, not requests
	// for a default: fail loudly instead of silently clamping.
	if *pipeline < 0 {
		log.Fatalf("-pipeline %d: must be >= 0 (0 selects the default depth %d, 1 is serial)", *pipeline, deepsecure.DefaultPipelineDepth)
	}
	if *maxBatch < 0 {
		log.Fatalf("-max-batch %d: must be >= 0 (0 selects the default cap %d)", *maxBatch, deepsecure.DefaultMaxBatch)
	}

	net0, err := buildModel(*model)
	if err != nil {
		log.Fatal(err)
	}
	net0.InitWeights(rand.New(rand.NewSource(*seed)))

	start := time.Now()
	poolCfg := deepsecure.PoolConfig{
		Capacity:       *otPool,
		RefillLowWater: *otLowWater,
		Background:     *otBackground,
	}
	admCfg := deepsecure.AdmissionConfig{
		MaxActive:    *maxSessions,
		MaxQueue:     *maxQueue,
		QueueTimeout: *queueTimeout,
		RetryAfter:   *retryAfter,
		MaxP99:       *maxP99,
		ShedTimeout:  *shedTimeout,
	}
	if err := admCfg.Validate(); err != nil {
		log.Fatal(err)
	}
	deadlines := deepsecure.DeadlineConfig{
		Handshake: *handshakeTimeout,
		OTSetup:   *otSetupTimeout,
		Inference: *inferTimeout,
	}
	if err := deadlines.Validate(); err != nil {
		log.Fatal(err)
	}
	srv, err := deepsecure.NewServer(net0, deepsecure.DefaultFormat,
		deepsecure.WithEngine(deepsecure.EngineConfig{Workers: *workers, ChunkBytes: *chunkKB << 10, Deadlines: deadlines}),
		deepsecure.WithIdleTimeout(*idle),
		deepsecure.WithOTPool(poolCfg),
		deepsecure.WithPipeline(*pipeline),
		deepsecure.WithMaxBatch(*maxBatch),
		deepsecure.WithAdmission(admCfg))
	if err != nil {
		log.Fatal(err)
	}
	srv.Logf = log.Printf
	andGates, totalGates := srv.ProgramStats()
	log.Printf("compiled %s netlist in %v: %d gates (%d non-XOR)",
		net0.Arch(), time.Since(start).Round(time.Millisecond), totalGates, andGates)
	if eff := poolCfg.Effective(); eff.Enabled() {
		log.Printf("OT precomputation on: %d random OTs per session at setup, refill below %d (background=%v)",
			eff.Capacity, eff.RefillLowWater, eff.Background)
	} else {
		log.Printf("OT precomputation off: weight transfers run IKNP online")
	}
	fanout := *workers
	if fanout <= 0 {
		fanout = runtime.GOMAXPROCS(0)
	}
	log.Printf("engine pool: shared work-stealing scheduler, %d worker(s) process-wide, per-session fan-out %d",
		sched.Default().Workers(), fanout)
	if admCfg.Enabled() {
		log.Printf("admission control on: %d active session(s) max, queue %d (timeout %v), retry-after %v, p99 guard %v",
			admCfg.MaxActive, admCfg.MaxQueue, *queueTimeout, *retryAfter, *maxP99)
	}
	if deadlines != (deepsecure.DeadlineConfig{}) {
		log.Printf("phase deadlines on: handshake %v, ot-setup %v, inference %v (0 = unbounded)",
			deadlines.Handshake, deadlines.OTSetup, deadlines.Inference)
	}
	if depth := (deepsecure.EngineConfig{Pipeline: *pipeline}).PipelineDepth(); depth == 1 {
		log.Printf("cross-inference pipelining off: inferences on a session run serially")
	} else {
		log.Printf("cross-inference pipelining on: up to %d inference(s) in flight per session", depth)
	}
	log.Printf("batched inference: up to %d sample(s) per fused InferBatch call",
		(deepsecure.EngineConfig{MaxBatch: *maxBatch}).MaxBatchSize())
	if deepsecure.WideHashAvailable() {
		log.Printf("garbling hash core: 8-block pipelined AES-NI kernel")
	} else {
		log.Printf("garbling hash core: portable crypto/aes fallback (no AES-NI or purego build)")
	}

	if *metricsAddr != "" {
		mux := obs.ServeMux(obs.Default, *pprofOn)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics endpoint failed: %v", err)
			}
		}()
		if *pprofOn {
			log.Printf("metrics on http://%s/metrics (JSON at /debug/stats, profiles at /debug/pprof/)", *metricsAddr)
		} else {
			log.Printf("metrics on http://%s/metrics (JSON at /debug/stats)", *metricsAddr)
		}
	}

	if *statsEvery > 0 {
		go func() {
			for range time.Tick(*statsEvery) {
				log.Printf("stats: %s", obs.ServingLine(obs.Default.Snapshot()))
			}
		}()
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("shutting down (draining up to %v; interrupt again to force)", *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		go func() {
			<-sigs
			srv.Close()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("forced shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s", *listen)
	if err := srv.ListenAndServe(*listen); err != nil && err != deepsecure.ErrServerClosed {
		log.Fatal(err)
	}
	st := srv.Stats()
	log.Printf("served %d session(s), %d inference(s) total; pipeline peak %d in flight, %v overlapped",
		st.Sessions, st.Inferences, st.MaxInFlight, st.OverlapTime.Round(time.Millisecond))
	log.Printf("final: %s", obs.ServingLine(obs.Default.Snapshot()))
}
