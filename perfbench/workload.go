package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"deepsecure"
	"deepsecure/internal/obs"
)

// workload is one traffic mix. Batch is the number of samples per
// fused InferBatch call (1 runs the InferAsync loop).
type workload struct {
	Name   string
	Model  string
	Batch  int
	Burst  bool
	Banked bool
}

var workloads = map[string]workload{
	"stream": {Name: "stream", Model: "small", Batch: 1},
	"batch":  {Name: "batch", Model: "mid", Batch: 8},
	"burst":  {Name: "burst", Model: "small", Batch: 1, Burst: true},
	"banked": {Name: "banked", Model: "small", Batch: 1, Banked: true},
}

const (
	// setupReps is how many times a run sets the whole stack up; setup_s
	// is the median.
	setupReps = 3
	// samplePool is the number of distinct seeded samples a run cycles
	// through.
	samplePool = 64
	// burstRate is the open-loop session arrival rate (sessions/s) of
	// the burst workload: below the ~2 sessions/s one admitted session
	// at a time sustains on a 2-core host, so admission queues some
	// arrivals and sheds none.
	burstRate = 1.2
	// bankDepth is the banked workload's bank size: about eight
	// seconds of warm-bank inferences on a 2-core host, and ~0.7 GB of
	// garbled tables, so the process stays near 1.5 GB at its peak.
	bankDepth = 40
)

// buildModel returns one of the benchmark's fixed-weight models: the
// daemon's "small" model (weights from its default seed 1) or the "mid"
// model of the batch benchmarks (weights from seed 95).
func buildModel(name string) (*deepsecure.Network, error) {
	var (
		n    *deepsecure.Network
		err  error
		seed int64
	)
	switch name {
	case "small":
		n, err = deepsecure.NewNetwork(deepsecure.Vec(32),
			deepsecure.NewDense(16),
			deepsecure.NewActivation(deepsecure.TanhCORDIC),
			deepsecure.NewDense(4))
		seed = 1
	case "mid":
		n, err = deepsecure.NewNetwork(deepsecure.Vec(64),
			deepsecure.NewDense(24),
			deepsecure.NewActivation(deepsecure.ReLU),
			deepsecure.NewDense(8))
		seed = 95
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
	if err != nil {
		return nil, err
	}
	n.InitWeights(rand.New(rand.NewSource(seed)))
	return n, nil
}

// inputs are a run's samples and the labels PredictFixed gives them.
type inputs struct {
	xs     [][]float64
	labels []int
}

func makeInputs(n *deepsecure.Network, seed int64, count int) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{xs: make([][]float64, count), labels: make([]int, count)}
	for i := range in.xs {
		x := make([]float64, n.In.Len())
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		in.xs[i] = x
		in.labels[i] = n.PredictFixed(deepsecure.DefaultFormat, x)
	}
	return in
}

// burstSchedule returns the burst workload's arrival offsets: a Poisson
// process of rate burstRate over the window, conditioned on its
// expected count, i.e. that many uniform arrival times, sorted.
func burstSchedule(seed int64, seconds int) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed_b0a7))
	n := int(math.Round(burstRate * float64(seconds)))
	if n < 1 {
		n = 1
	}
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * float64(seconds) * float64(time.Second))
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	return at
}

// serverOptions configures the server as deepsecure-serve's defaults
// do, plus the bank policy on banked and admission control on burst.
func serverOptions(w workload, depth int) []deepsecure.ServerOption {
	bank := deepsecure.BankConfig{Depth: depth}
	opts := []deepsecure.ServerOption{
		deepsecure.WithEngine(deepsecure.EngineConfig{}),
		deepsecure.WithIdleTimeout(2 * time.Minute),
		deepsecure.WithOTPool(deepsecure.PoolConfig{Capacity: 1 << 16, Background: true}),
		deepsecure.WithPipeline(0),
		deepsecure.WithMaxBatch(0),
		deepsecure.WithBank(bank),
		deepsecure.WithSpeculativeOT(bank.Enabled()),
	}
	if w.Burst {
		// One session in the protocol at a time; the queue holds every
		// session the client can have in flight plus as many again
		// that the client has closed but the server is still tearing
		// down, so arrivals queue and are never shed.
		opts = append(opts, deepsecure.WithAdmission(deepsecure.AdmissionConfig{
			MaxActive:    1,
			MaxQueue:     2 * runtime.NumCPU(),
			QueueTimeout: 30 * time.Second,
			RetryAfter:   100 * time.Millisecond,
		}))
	}
	return opts
}

// rig is a running server on a loopback listener.
type rig struct {
	srv    *deepsecure.InferenceServer
	addr   string
	served chan error
}

func startRig(n *deepsecure.Network, opts []deepsecure.ServerOption) (*rig, error) {
	srv, err := deepsecure.NewServer(n, deepsecure.DefaultFormat, opts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { r.served <- srv.Serve(ln) }()
	return r, nil
}

// waitIdle waits until the server has finished accounting every
// session, so its counters cover the sessions the client closed.
func (r *rig) waitIdle() error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if r.srv.Stats().ActiveSessions == 0 {
			return nil
		}
	}
	return errors.New("server sessions still active 10s after the client closed them")
}

func (r *rig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if err != nil {
		r.srv.Close()
	}
	if serr := <-r.served; !errors.Is(serr, deepsecure.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// window is what one timed window of a workload measured.
type window struct {
	dur        time.Duration
	attempted  int64 // samples submitted
	failed     int64 // samples lost to errors, sheds or wrong labels
	mismatches int64 // wrong labels among them
	correct    int64 // samples returned with the PredictFixed label
	sessions   int64
	callLat    []time.Duration // submit → result, per call
	sessLat    []time.Duration // burst: due time → Close returned
	late       []time.Duration // generator lateness per call or session
	opens      []time.Duration // burst: DialSession durations
	bytes      int64           // client bytes sent + received
	cpu        time.Duration   // process CPU
	client     clientTotals
	obs        obsDelta
	retries    int64 // burst: session attempts retried
}

// clientTotals are the client-side session counters a window adds up.
type clientTotals struct {
	otOnline                        time.Duration
	otRefills, otsConsumed, otsPool int64
	bankHits, bankMisses            int64
	andGates                        int64
}

func (c *clientTotals) add(after, before *deepsecure.InferStats) {
	c.otOnline += after.OTOnlineTime - before.OTOnlineTime
	c.otRefills += after.OTRefills - before.OTRefills
	c.otsConsumed += after.OTsConsumed - before.OTsConsumed
	c.otsPool += after.OTsPooled - before.OTsPooled
	c.bankHits += after.BankHits - before.BankHits
	c.bankMisses += after.BankMisses - before.BankMisses
	c.andGates += after.ANDGates - before.ANDGates
}

func (w *window) check(label, want int) {
	if label != want {
		w.failed++
		w.mismatches++
		return
	}
	w.correct++
}

// clock measures a window's online time: a paused clock leaves the
// banked workload's offline refills out of the window.
type clock struct {
	limit       time.Duration
	accum       time.Duration
	start, last time.Time
}

func newClock(seconds int) *clock {
	now := time.Now()
	return &clock{limit: time.Duration(seconds) * time.Second, start: now, last: now}
}

// running reports whether the window still has online time left.
func (c *clock) running() bool { return c.accum+time.Since(c.start) < c.limit }

// done marks a completion; the window ends at the last one.
func (c *clock) done(t time.Time) { c.last = t }

func (c *clock) pause()  { c.accum += c.last.Sub(c.start) }
func (c *clock) resume() { c.start = time.Now(); c.last = c.start }

func (c *clock) total() time.Duration { return c.accum + c.last.Sub(c.start) }

// runClosed runs a closed loop on one open session for the given number
// of seconds: batch workloads issue one fused InferBatch call at a time,
// the others keep the negotiated in-flight window full with InferAsync.
// A banked loop that empties its bank drains, stops the clock, refills
// the bank with Session.FillBank and carries on, so every timed
// inference is a bank hit and the refills stay offline. In-flight work
// is drained before the window closes.
func runClosed(sess *deepsecure.Session, w workload, in inputs, seconds int, tr *tracer, tag string) (window, error) {
	var (
		win    window
		offCPU time.Duration
		err    error
	)
	before := sess.Stats()
	ob := obs.Default.Snapshot()
	cpu0 := processCPU()
	clk := newClock(seconds)
	slotFree := time.Now()
	next := 0

	if w.Batch > 1 {
		for clk.running() {
			idx := make([]int, w.Batch)
			xs := make([][]float64, w.Batch)
			for i := range xs {
				idx[i] = next % len(in.xs)
				xs[i] = in.xs[idx[i]]
				next++
			}
			t0 := time.Now()
			win.late = append(win.late, t0.Sub(slotFree))
			_, end := tr.begin("core.InferBatch", fmt.Sprintf("%s/batch-%d", tag, len(win.callLat)), 0)
			labels, _, ierr := sess.InferBatch(xs)
			end()
			done := time.Now()
			win.attempted += int64(w.Batch)
			if ierr != nil {
				win.failed += int64(w.Batch)
				break
			}
			win.callLat = append(win.callLat, done.Sub(t0))
			for i, l := range labels {
				win.check(l, in.labels[idx[i]])
			}
			clk.done(done)
			slotFree = done
		}
	} else {
		type pending struct {
			p     *deepsecure.PendingInference
			t0    time.Time
			idx   int
			trace string
			span  int64
			end   func()
		}
		var queue []pending
		broken := false
		for {
			for !broken && len(queue) < sess.Window() && clk.running() &&
				(!w.Banked || bankLeft(sess) > 0) {
				idx := next % len(in.xs)
				next++
				t0 := time.Now()
				win.late = append(win.late, t0.Sub(slotFree))
				trace := fmt.Sprintf("%s/infer-%d", tag, next)
				span, end := tr.begin("infer", trace, 0)
				_, endSubmit := tr.begin("core.InferAsync", trace, span)
				p, ierr := sess.InferAsync(in.xs[idx])
				endSubmit()
				slotFree = time.Now()
				win.attempted++
				if ierr != nil {
					end()
					win.failed++
					broken = true
					break
				}
				queue = append(queue, pending{p: p, t0: t0, idx: idx, trace: trace, span: span, end: end})
			}
			if len(queue) == 0 {
				if broken || !w.Banked || !clk.running() {
					break
				}
				clk.pause()
				cpuFill := processCPU()
				_, end := tr.begin("bank.FillBank", tag+"/refill", 0)
				err = sess.FillBank()
				end()
				offCPU += processCPU() - cpuFill
				clk.resume()
				slotFree = time.Now()
				if err != nil {
					err = fmt.Errorf("refill bank: %w", err)
					break
				}
				continue
			}
			h := queue[0]
			queue = queue[1:]
			_, endWait := tr.begin("core.Wait", h.trace, h.span)
			label, _, werr := h.p.Wait()
			endWait()
			h.end()
			done := time.Now()
			if werr != nil {
				win.failed++
				broken = true
				continue
			}
			win.callLat = append(win.callLat, done.Sub(h.t0))
			win.check(label, in.labels[h.idx])
			clk.done(done)
			slotFree = done
		}
	}

	win.dur = clk.total()
	win.cpu = processCPU() - cpu0 - offCPU
	after := sess.Stats()
	win.bytes = after.BytesSent + after.BytesReceived - before.BytesSent - before.BytesReceived
	win.client.add(after, before)
	win.obs = obsDelta{before: ob, after: obs.Default.Snapshot()}
	win.sessions = 1
	return win, err
}

// bankLeft returns the executions still banked for the session's
// program: every banked execution leaves the bank as a hit.
func bankLeft(sess *deepsecure.Session) int64 {
	st := sess.BankStats()
	return st.Banked - st.Hits
}

// runBurst replays the open-loop arrival schedule: each arrival dials,
// opens a session, runs one Infer and closes, with at most NumCPU
// sessions in flight on the client side. Sessions are timed from their
// due time, so a generator held back by that limit counts against them.
func runBurst(r *rig, cli *deepsecure.Client, in inputs, sched []time.Duration, tr *tracer, tag string) (window, error) {
	var (
		win  window
		mu   sync.Mutex
		wg   sync.WaitGroup
		last time.Time
	)
	ob := obs.Default.Snapshot()
	cpu0 := processCPU()
	sem := make(chan struct{}, runtime.NumCPU())
	start := time.Now()
	for i, at := range sched {
		due := start.Add(at)
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		late := time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			o := runSession(r, cli, in, i, due, tr, tag)
			mu.Lock()
			defer mu.Unlock()
			win.late = append(win.late, late)
			win.merge(o)
			if o.end.After(last) {
				last = o.end
			}
		}(i)
	}
	wg.Wait()
	win.dur = last.Sub(start)
	win.cpu = processCPU() - cpu0
	err := r.waitIdle()
	win.obs = obsDelta{before: ob, after: obs.Default.Snapshot()}
	return win, err
}

// sessionOutcome is one burst session's measurements.
type sessionOutcome struct {
	ok                 bool
	label, want        int
	open, infer, total time.Duration
	end                time.Time
	stats              *deepsecure.InferStats
	retries            int64
}

func (w *window) merge(o sessionOutcome) {
	w.sessions++
	w.attempted++
	w.retries += o.retries
	if !o.ok {
		w.failed++
		return
	}
	w.opens = append(w.opens, o.open)
	w.callLat = append(w.callLat, o.infer)
	w.sessLat = append(w.sessLat, o.total)
	w.bytes += o.stats.BytesSent + o.stats.BytesReceived
	w.client.add(o.stats, &deepsecure.InferStats{})
	w.check(o.label, o.want)
}

func runSession(r *rig, cli *deepsecure.Client, in inputs, i int, due time.Time, tr *tracer, tag string) sessionOutcome {
	var o sessionOutcome
	idx := i % len(in.xs)
	trace := fmt.Sprintf("%s/session-%d", tag, i)
	root, endRoot := tr.begin("session", trace, 0)
	defer endRoot()

	t0 := time.Now()
	_, endOpen := tr.begin("core.NewSession", trace, root)
	sess, nc, err := deepsecure.DialSession(r.addr, cli, deepsecure.RetryPolicy{
		MaxAttempts: 50,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  time.Second,
		OnRetry:     func(int, error, time.Duration) { o.retries++ },
	})
	endOpen()
	o.open = time.Since(t0)
	if err != nil {
		o.end = time.Now()
		return o
	}
	defer nc.Close()

	t1 := time.Now()
	_, endInfer := tr.begin("core.Infer", trace, root)
	o.want = in.labels[idx]
	o.label, _, err = sess.Infer(in.xs[idx])
	endInfer()
	o.infer = time.Since(t1)
	_, endClose := tr.begin("core.Close", trace, root)
	cerr := sess.Close()
	endClose()
	o.end = time.Now()
	o.total = o.end.Sub(due)
	o.stats = sess.Stats()
	o.ok = err == nil && cerr == nil
	return o
}
