package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deepsecure"
	"deepsecure/internal/circuit"
	"deepsecure/internal/costmodel"
	"deepsecure/internal/netgen"
	"deepsecure/internal/obs"
)

// runResult collects everything one run measured.
type runResult struct {
	w                 workload
	seed              int64
	seconds           int
	all               map[string]Metric
	problems          []string
	attempted, failed int64
	tr                *tracer
}

func (r *runResult) set(name, unit string, v float64) { r.all[name] = Metric{Value: v, Unit: unit} }

func (r *runResult) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// live is the stack left standing by the last set-up repetition.
type live struct {
	rig  *rig
	cli  *deepsecure.Client
	sess *deepsecure.Session
	conn net.Conn
}

// setUp builds the whole stack setupReps times — server compile, a fresh
// client's first session (client compile, handshake, base OT, pool
// fill) and, on banked, the bank fill — and keeps the last one running.
// It returns the median set-up time, the last stack and each
// repetition's NewSession time. The bank fill (a single fill of depth
// executions) runs once, on the last repetition, and is added to the
// median of the rest of set-up.
func setUp(w workload, n *deepsecure.Network, depth int, tr *tracer) (float64, *live, []time.Duration, error) {
	opts := serverOptions(w, depth)
	var (
		times []float64
		opens []time.Duration
		fill  time.Duration
	)
	for i := 0; i < setupReps; i++ {
		last := i == setupReps-1
		var cfg deepsecure.EngineConfig
		if last && w.Banked {
			cfg.Bank = deepsecure.BankConfig{Depth: depth}
		}
		trace := fmt.Sprintf("setup-%d", i)
		root, endRoot := tr.begin("setup", trace, 0)
		t0 := time.Now()
		_, endNew := tr.begin("server.New", trace, root)
		rg, err := startRig(n, opts)
		endNew()
		if err != nil {
			endRoot()
			return 0, nil, nil, fmt.Errorf("server: %w", err)
		}
		cli := &deepsecure.Client{Engine: cfg}
		t1 := time.Now()
		_, endOpen := tr.begin("core.NewSession", trace, root)
		sess, conn, err := deepsecure.DialSession(rg.addr, cli, deepsecure.RetryPolicy{MaxAttempts: 1})
		endOpen()
		open := time.Since(t1)
		total := time.Since(t0)
		endRoot()
		if err != nil {
			rg.stop()
			return 0, nil, nil, fmt.Errorf("session: %w", err)
		}
		if last && w.Banked {
			fill = sess.Stats().BankRefillTime
			open -= fill
			total -= fill
		}
		times = append(times, total.Seconds())
		opens = append(opens, open)
		if last {
			return quantile(times, 0.5) + fill.Seconds(), &live{rig: rg, cli: cli, sess: sess, conn: conn}, opens, nil
		}
		err = sess.Close()
		conn.Close()
		if err != nil {
			rg.stop()
			return 0, nil, nil, fmt.Errorf("close set-up session: %w", err)
		}
		if err := rg.stop(); err != nil {
			return 0, nil, nil, fmt.Errorf("server stop: %w", err)
		}
		runtime.GC()
	}
	panic("unreachable")
}

// runWorkload runs one workload: set-up, the untraced timed window and,
// when traced, a second window with spans plus the layer replays.
func runWorkload(w workload, seed int64, seconds int, traced bool) (*runResult, error) {
	r := &runResult{w: w, seed: seed, seconds: seconds, all: make(map[string]Metric), tr: newTracer(traced)}
	model, err := buildModel(w.Model)
	if err != nil {
		return nil, err
	}
	counts, _, err := netgen.FastCount(model, deepsecure.DefaultFormat, netgen.Options{})
	if err != nil {
		return nil, err
	}
	in := makeInputs(model, seed, samplePool)
	var sched []time.Duration
	if w.Burst {
		sched = burstSchedule(seed, seconds)
	}
	depth := 0
	if w.Banked {
		depth = bankDepth
	}

	setupS, st, opens, err := setUp(w, model, depth, r.tr)
	if err != nil {
		return nil, err
	}
	defer st.cli.Close()
	srv0 := st.rig.srv.Stats()
	if w.Burst {
		// Burst sessions are the client's later sessions: the set-up
		// session must not hold the one admission slot.
		err := st.sess.Close()
		st.conn.Close()
		if err != nil {
			st.rig.stop()
			return nil, fmt.Errorf("close set-up session: %w", err)
		}
		if err := st.rig.waitIdle(); err != nil {
			return nil, err
		}
		srv0 = st.rig.srv.Stats()
	}
	runWindow := func(tr *tracer, tag string) (window, error) {
		if w.Burst {
			return runBurst(st.rig, st.cli, in, sched, tr, tag)
		}
		return runClosed(st.sess, w, in, seconds, tr, tag)
	}

	w1, err := runWindow(newTracer(false), "untraced")
	if err != nil {
		return nil, err
	}
	r.endToEnd(w1, setupS)
	r.checkCounts(w1, counts)

	var w2 window
	if traced {
		if w2, err = runWindow(r.tr, "traced"); err != nil {
			return nil, err
		}
		r.checkCounts(w2, counts)
		if w.Burst {
			opens = w2.opens
		}
	}
	// The bank's own fill timer covers the set-up fill and every refill.
	var fillMsPerExec float64
	if bs := st.sess.BankStats(); bs.Banked > 0 {
		fillMsPerExec = float64(bs.RefillTime) / 1e6 / float64(bs.Banked)
	}

	var poolUse float64
	if !w.Burst {
		total := st.sess.Stats()
		if total.OTsPooled > 0 {
			poolUse = float64(total.OTsConsumed) / float64(total.OTsPooled)
		}
		if err := st.sess.Close(); err != nil {
			r.problem("closing the session: %v", err)
		}
		st.conn.Close()
		if err := st.rig.waitIdle(); err != nil {
			return nil, err
		}
	} else if w2.client.otsPool > 0 {
		poolUse = float64(w2.client.otsConsumed) / float64(w2.client.otsPool)
	}
	srv1 := st.rig.srv.Stats()
	if err := st.rig.stop(); err != nil {
		r.problem("stopping the server: %v", err)
	}
	st.cli.Close()
	r.set("peak_rss_mb", "MB", peakRSSMB())
	if !traced {
		return r, nil
	}

	// Per-layer metrics of the traced window.
	r.attempted += w2.attempted
	r.failed += w2.failed
	inf := float64(max(w2.correct, 1))
	r.set("core.open_ms", "ms", quantile(millis(opens), 0.5))
	r.set("core.max_in_flight", "count", float64(srv1.MaxInFlight))
	r.set("core.overlap_frac", "1", (srv1.OverlapTime-srv0.OverlapTime).Seconds()/(w1.dur+w2.dur).Seconds())
	r.set("ot.ots_per_inf", "count", float64(w2.client.otsConsumed)/inf)
	r.set("precomp.online_ms_per_inf", "ms", float64(w2.client.otOnline)/1e6/inf)
	r.set("precomp.refills_per_inf", "count", float64(w2.client.otRefills)/inf)
	r.set("precomp.pool_use_frac", "1", poolUse)
	hitFrac := 0.0
	if n := w2.client.bankHits + w2.client.bankMisses; n > 0 {
		hitFrac = float64(w2.client.bankHits) / float64(n)
	}
	r.set("bank.hit_frac", "1", hitFrac)
	queued := w2.obs.counter("deepsecure_sessions_queued_total")
	r.set("server.queued_frac", "1", float64(queued)/float64(max(w2.sessions, 1)))
	r.set("server.shed_total", "count", float64(w2.obs.counter("deepsecure_sessions_shed_total")))
	r.set("server.busy_retries", "count", float64(w2.retries))
	for _, p := range obs.Phases() {
		r.set("phase."+p.String()+"_ms_per_inf", "ms", w2.obs.phaseSeconds(p)*1e3/inf)
	}
	r.set("loadgen.late_p99_ms", "ms", quantile(millis(w2.late), 0.99))
	r.set("trace.overhead_frac", "1", 1-rate(w2)/rate(w1))
	est := costmodel.FromStats(counts, costmodel.Paper())
	r.set("costmodel.pred_exec_ms_per_inf", "ms", est.ExecS*1e3)
	r.set("netgen.and_gates", "count", float64(counts.AND))
	r.set("netgen.free_gates", "count", float64(counts.FreeXOR()))

	runtime.GC()
	if err := r.replayLayers(model, counts, fillMsPerExec); err != nil {
		return nil, err
	}
	return r, nil
}

func rate(w window) float64 {
	if w.dur <= 0 {
		return 0
	}
	return float64(w.correct) / w.dur.Seconds()
}

// endToEnd records the untraced window's end-to-end metrics.
func (r *runResult) endToEnd(w window, setupS float64) {
	r.attempted += w.attempted
	r.failed += w.failed
	inf := float64(max(w.correct+w.mismatches, 1))
	lat := millis(w.callLat)
	q := tailQuantile(len(lat))
	r.set("setup_s", "s", setupS)
	r.set("inf_per_s", "1/s", rate(w))
	r.set("infer_p50_ms", "ms", quantile(lat, 0.5))
	r.set("infer_tail_ms", "ms", quantile(lat, q))
	r.set("infer_tail_quantile", "1", q)
	r.set("infer_samples", "count", float64(len(lat)))
	r.set("comm_mb_per_inf", "MB", float64(w.bytes)/1e6/inf)
	r.set("cpu_ms_per_inf", "ms", float64(w.cpu)/1e6/inf)
	r.set("ok_frac", "1", float64(w.attempted-w.failed)/float64(max(w.attempted, 1)))
	r.set("fail_frac", "1", float64(w.failed)/float64(max(w.attempted, 1)))
	r.set("wrong_labels", "count", float64(w.mismatches))
	if w.attempted == 0 || w.correct == 0 {
		r.problem("no inference completed in the timed window")
	}
	if r.w.Burst {
		sl := millis(w.sessLat)
		sq := tailQuantile(len(sl))
		r.set("session_p50_ms", "ms", quantile(sl, 0.5))
		r.set("session_tail_ms", "ms", quantile(sl, sq))
		r.set("session_tail_quantile", "1", sq)
		r.set("session_samples", "count", float64(len(sl)))
	}
}

// checkCounts cross-checks a window's exact client counters against
// netgen.FastCount: every inference garbles exactly the model's AND
// gates and transfers exactly its evaluator-input bits by OT.
func (r *runResult) checkCounts(w window, counts circuit.Stats) {
	if w.correct == 0 || w.failed > 0 {
		return
	}
	if w.client.otsConsumed != counts.EvaluatorInputs*w.correct {
		r.problem("%d OTs consumed for %d inferences, want %d evaluator-input bits each",
			w.client.otsConsumed, w.correct, counts.EvaluatorInputs)
	}
	if w.client.andGates != counts.AND*w.correct {
		r.problem("%d AND gates garbled for %d inferences, want %d each",
			w.client.andGates, w.correct, counts.AND)
	}
}

// traceFile is what a traced run writes out.
type traceFile struct {
	Workload string                `json:"workload"`
	Seed     int64                 `json:"seed"`
	Seconds  int                   `json:"seconds"`
	Host     Host                  `json:"host"`
	Metrics  map[string]Metric     `json:"metrics"`
	Problems []string              `json:"problems,omitempty"`
	ByName   map[string]SpanTotals `json:"span_totals"`
	Spans    []Span                `json:"spans"`
}

func (r *runResult) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tf := traceFile{
		Workload: r.w.Name, Seed: r.seed, Seconds: r.seconds, Host: hostInfo(),
		Metrics: r.all, Problems: r.problems, ByName: r.tr.totals(), Spans: r.tr.spans,
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
