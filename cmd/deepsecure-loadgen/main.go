// deepsecure-loadgen drives a deepsecure-serve daemon with many
// concurrent secure-inference sessions and reports latency percentiles:
// how the shared engine scheduler and admission control behave at S=64
// only shows under open-loop arrivals and a percentile report.
//
//	deepsecure-loadgen -connect 127.0.0.1:9090 -sessions 64 -rate 32 -inferences 4
//
// Sessions arrive open-loop at -rate per second (all at once when 0),
// each runs -inferences secure inferences and closes. A server shedding
// load answers with protocol busy frames; the loadgen backs off by the
// server's retry-after hint and retries up to -retries times, counting
// every busy response — so an admission-controlled server under
// overload shows up as busy_responses and queue waits, not as client
// timeouts. The JSON report (stdout, or -json FILE) carries session
// outcomes, aggregate inferences/sec, and setup/inference latency
// percentiles from obs histograms.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"deepsecure"
	"deepsecure/internal/obs"
)

type config struct {
	Connect     string  `json:"connect"`
	Sessions    int     `json:"sessions"`
	Rate        float64 `json:"rate_per_sec"`
	Concurrency int     `json:"concurrency"`
	Inferences  int     `json:"inferences_per_session"`
	Batch       int     `json:"batch"`
	Workers     int     `json:"client_workers"`
	Retries     int     `json:"busy_retries"`
	Seed        int64   `json:"seed"`
}

type histReport struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
}

type report struct {
	Config      config  `json:"config"`
	WallSeconds float64 `json:"wall_seconds"`
	Sessions    struct {
		Launched  int64 `json:"launched"`
		Completed int64 `json:"completed"`
		Failed    int64 `json:"failed"`
		Busy      int64 `json:"busy_responses"`
		Retries   int64 `json:"retries"`
		Dropped   int64 `json:"dropped"` // shed past the retry budget
	} `json:"sessions"`
	Inferences struct {
		Total  int64   `json:"total"`
		PerSec float64 `json:"per_sec"`
	} `json:"inferences"`
	LatencyMs histReport `json:"latency_ms"`
	SetupMs   histReport `json:"setup_ms"`
}

func msReport(s obs.HistogramSnapshot) histReport {
	const ms = 1e6 // histogram values are nanoseconds
	return histReport{
		P50:  s.Quantile(0.50) / ms,
		P95:  s.Quantile(0.95) / ms,
		P99:  s.Quantile(0.99) / ms,
		Mean: s.Mean() / ms,
	}
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.Connect, "connect", "127.0.0.1:9090", "server address")
	flag.IntVar(&cfg.Sessions, "sessions", 64, "total sessions to run")
	flag.Float64Var(&cfg.Rate, "rate", 0, "open-loop session arrival rate per second (0 = all at once)")
	flag.IntVar(&cfg.Concurrency, "concurrency", 0, "max concurrent sessions client-side (0 = unlimited)")
	flag.IntVar(&cfg.Inferences, "inferences", 4, "inferences per session")
	flag.IntVar(&cfg.Batch, "batch", 0, "fuse inferences into batches of this size (0/1 = single)")
	flag.IntVar(&cfg.Workers, "workers", 0, "client engine workers (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.Retries, "retries", 16, "busy-response retries per session before dropping it")
	flag.Int64Var(&cfg.Seed, "seed", 1, "sample seed")
	jsonPath := flag.String("json", "-", "write the JSON report here (- = stdout)")
	dialTimeout := flag.Duration("dial-timeout", 10*time.Second, "per-dial timeout")
	flag.Parse()

	reg := obs.NewRegistry()
	setupHist := reg.Histogram(obs.Desc{Name: "loadgen_setup_seconds", Scale: 1e-9}, obs.DefaultLatencyBounds)
	inferHist := reg.Histogram(obs.Desc{Name: "loadgen_inference_seconds", Scale: 1e-9}, obs.DefaultLatencyBounds)

	// One shared client: the compiled netlist is cached per model spec,
	// so only the first session pays compilation — matching a real
	// multi-session client process.
	cli := &deepsecure.Client{Engine: deepsecure.EngineConfig{Workers: cfg.Workers}}

	var rep report
	rep.Config = cfg
	var completed, failed, busy, retries, dropped, inferences atomic.Int64

	runSession := func(idx int) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(idx)))
		// Session establishment rides the facade's retry policy: busy
		// responses back off by at least the server's retry-after hint,
		// and transient network failures (dial errors, peers dying
		// mid-handshake) re-dial instead of failing the session outright.
		// t0 tracks the start of the latest attempt so setup latency
		// measures the successful handshake, not the backoff waits.
		t0 := time.Now()
		sess, conn, err := deepsecure.DialSession(cfg.Connect, cli, deepsecure.RetryPolicy{
			MaxAttempts: cfg.Retries + 1,
			DialTimeout: *dialTimeout,
			OnRetry: func(_ int, err error, wait time.Duration) {
				retries.Add(1)
				var be *deepsecure.BusyError
				if errors.As(err, &be) {
					busy.Add(1)
				}
				t0 = time.Now().Add(wait)
			},
		})
		if err != nil {
			var be *deepsecure.BusyError
			if errors.As(err, &be) {
				busy.Add(1)
				dropped.Add(1)
				return
			}
			log.Printf("session %d: setup: %v", idx, err)
			failed.Add(1)
			return
		}
		setupHist.Observe(int64(time.Since(t0)))
		defer conn.Close()

		x := make([]float64, sess.InputLen())
		sample := func() []float64 {
			for i := range x {
				x[i] = rng.Float64()*2 - 1
			}
			return x
		}
		for done := 0; done < cfg.Inferences; {
			if cfg.Batch > 1 {
				n := cfg.Batch
				if rest := cfg.Inferences - done; n > rest {
					n = rest
				}
				xs := make([][]float64, n)
				for i := range xs {
					xs[i] = append([]float64(nil), sample()...)
				}
				t0 := time.Now()
				if _, _, err := sess.InferBatch(xs); err != nil {
					log.Printf("session %d: batch: %v", idx, err)
					failed.Add(1)
					return
				}
				inferHist.Observe(int64(time.Since(t0)))
				inferences.Add(int64(n))
				done += n
			} else {
				t0 := time.Now()
				if _, _, err := sess.Infer(sample()); err != nil {
					log.Printf("session %d: infer: %v", idx, err)
					failed.Add(1)
					return
				}
				inferHist.Observe(int64(time.Since(t0)))
				inferences.Add(1)
				done++
			}
		}
		if err := sess.Close(); err != nil {
			log.Printf("session %d: close: %v", idx, err)
			failed.Add(1)
			return
		}
		completed.Add(1)
	}

	var sem chan struct{}
	if cfg.Concurrency > 0 {
		sem = make(chan struct{}, cfg.Concurrency)
	}
	var arrivals <-chan time.Time
	if cfg.Rate > 0 {
		tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer tick.Stop()
		arrivals = tick.C
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		if arrivals != nil {
			<-arrivals
		}
		if sem != nil {
			sem <- struct{}{}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			runSession(i)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	rep.WallSeconds = wall.Seconds()
	rep.Sessions.Launched = int64(cfg.Sessions)
	rep.Sessions.Completed = completed.Load()
	rep.Sessions.Failed = failed.Load()
	rep.Sessions.Busy = busy.Load()
	rep.Sessions.Retries = retries.Load()
	rep.Sessions.Dropped = dropped.Load()
	rep.Inferences.Total = inferences.Load()
	rep.Inferences.PerSec = float64(inferences.Load()) / wall.Seconds()
	rep.LatencyMs = msReport(inferHist.Snapshot())
	rep.SetupMs = msReport(setupHist.Snapshot())

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	out = append(out, '\n')
	if *jsonPath == "-" {
		os.Stdout.Write(out)
	} else {
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "%d/%d sessions completed, %d inferences (%.1f inf/s), p50=%.1fms p99=%.1fms, %d busy response(s)\n",
		rep.Sessions.Completed, rep.Sessions.Launched, rep.Inferences.Total,
		rep.Inferences.PerSec, rep.LatencyMs.P50, rep.LatencyMs.P99, rep.Sessions.Busy)
	if rep.Sessions.Failed > 0 {
		os.Exit(1)
	}
}
