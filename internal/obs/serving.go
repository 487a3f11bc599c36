package obs

import (
	"fmt"
	"log"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

// This file defines the deepsecure serving metric set on the Default
// registry, the per-phase span API threaded through the protocol hot
// path, and the log-line renderer deepsecure-serve prints — all fed
// from the same registry snapshot as /metrics and /debug/stats.

// Default is the process-global registry every instrumented deepsecure
// layer records into. A process is one protocol party in production, so
// global aggregation is the natural scope; in-process tests that run
// both parties (or several servers) fold them together here, which the
// per-instance core.Stats / server.Stats APIs still keep apart.
var Default = NewRegistry()

// enabled gates every recording helper in this file. Disabling freezes
// the registry (observations are dropped, clocks still run), which is
// how the committed instrumentation-overhead benchmark measures the
// uninstrumented baseline on the same binary.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns hot-path recording on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether hot-path recording is on.
func Enabled() bool { return enabled.Load() }

// Phase names one timed stage of the secure-inference protocol.
type Phase uint8

const (
	// PhaseGarbleLive is the garbler's live per-level crypto (the
	// engine's GateTime) when an inference misses the bank.
	PhaseGarbleLive Phase = iota
	// PhaseGarbleBank is the garbler's online cost on a bank hit:
	// label selection plus streaming the pre-garbled tables.
	PhaseGarbleBank
	// PhaseTableWrite is time spent pushing garbled-table chunks into
	// the transport on the garbler side.
	PhaseTableWrite
	// PhaseTableRead is time the evaluator spends waiting on table
	// frames from the wire.
	PhaseTableRead
	// PhaseOTDerand is the online Beaver-style OT derandomization
	// exchange (both pool sides).
	PhaseOTDerand
	// PhaseSpecCollect is time collecting responses of speculatively
	// issued OT corrections.
	PhaseSpecCollect
	// PhaseEval is the evaluator's per-level crypto (the evaluation
	// engine's GateTime).
	PhaseEval
	// PhaseOutputRoundTrip is the client's wait from final flush to
	// decoded output.
	PhaseOutputRoundTrip
	// PhaseBankRefill is background garble-ahead bank refill work, per
	// pre-garbled execution.
	PhaseBankRefill
	// PhaseOTRefill is background random-OT pool refill work, per
	// extension run.
	PhaseOTRefill

	numPhases
)

var phaseNames = [numPhases]string{
	"garble_live",
	"garble_bank",
	"table_write",
	"table_read",
	"ot_derand",
	"spec_collect",
	"eval",
	"output_roundtrip",
	"bank_refill",
	"ot_refill",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Phases lists every protocol phase, for tests and docs.
func Phases() []Phase {
	ps := make([]Phase, numPhases)
	for i := range ps {
		ps[i] = Phase(i)
	}
	return ps
}

// DefaultLatencyBounds are the shared latency bucket edges in
// nanoseconds, 50µs to 60s roughly ×2–2.5 apart: tight enough at the
// bottom for bank-hit streaming and single derand exchanges, wide
// enough at the top for WAN-model batched inferences. p50/p95/p99 are
// derived from these buckets by linear interpolation.
var DefaultLatencyBounds = []int64{
	50_000, 100_000, 250_000, 500_000, // 50µs … 500µs
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, // 1ms … 50ms
	100_000_000, 250_000_000, 500_000_000, // 100ms … 500ms
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000, 30_000_000_000, 60_000_000_000, // 1s … 60s
}

// OTRole distinguishes the two precomputed-OT pool sides for the pool
// depth gauge.
type OTRole uint8

const (
	OTReceiver OTRole = iota // evaluator/server side
	OTSender                 // garbler/client side
	numOTRoles
)

// The deepsecure serving metric set. Everything is registered up front
// so the hot path never touches the registry lock.
var (
	mSessions = Default.Counter(Desc{Name: "deepsecure_sessions_total",
		Help: "Protocol sessions accepted since process start."})
	mActive = Default.Gauge(Desc{Name: "deepsecure_sessions_active",
		Help: "Sessions currently being served."})
	mInferences = Default.Counter(Desc{Name: "deepsecure_inferences_total",
		Help: "Inferences completed (each sample of a batch counts once)."})
	mBatches = Default.Counter(Desc{Name: "deepsecure_batches_total",
		Help: "Fused batched inferences of two or more samples completed (a single inference is a batch of one and is not counted)."})
	mErrors = Default.Counter(Desc{Name: "deepsecure_session_errors_total",
		Help: "Sessions that ended with a protocol or transport error."})

	mBytesSent = Default.Counter(Desc{Name: "deepsecure_bytes_total",
		Help:   "Transport bytes moved by this process, by direction.",
		Labels: []Label{{"direction", "sent"}}})
	mBytesRecv = Default.Counter(Desc{Name: "deepsecure_bytes_total",
		Labels: []Label{{"direction", "received"}}})

	mInferenceSeconds = Default.Histogram(Desc{Name: "deepsecure_inference_seconds",
		Help:  "End-to-end per-inference (or per-batch) latency.",
		Scale: 1e-9}, DefaultLatencyBounds)

	mPhaseSeconds = func() [numPhases]*Histogram {
		var hs [numPhases]*Histogram
		for p := Phase(0); p < numPhases; p++ {
			d := Desc{Name: "deepsecure_phase_seconds",
				Scale:  1e-9,
				Labels: []Label{{"phase", p.String()}}}
			if p == 0 {
				d.Help = "Per-phase wall time of the secure-inference protocol."
			}
			hs[p] = Default.Histogram(d, DefaultLatencyBounds)
		}
		return hs
	}()

	mOTPoolDepth = func() [numOTRoles]*Gauge {
		roles := [numOTRoles]string{"receiver", "sender"}
		var gs [numOTRoles]*Gauge
		for i, role := range roles {
			d := Desc{Name: "deepsecure_ot_pool_depth",
				Labels: []Label{{"role", role}}}
			if i == 0 {
				d.Help = "Precomputed random OTs currently available in the pool."
			}
			gs[i] = Default.Gauge(d)
		}
		return gs
	}()
	mOTPooled = Default.Counter(Desc{Name: "deepsecure_ot_pooled_total",
		Help: "Random OTs precomputed into pools since process start."})
	mOTConsumed = Default.Counter(Desc{Name: "deepsecure_ot_consumed_total",
		Help: "Pooled random OTs consumed by derandomization."})
	mOTRefills = Default.Counter(Desc{Name: "deepsecure_ot_refills_total",
		Help: "OT pool refill runs (setup fills and background refills)."})

	mBankHits = Default.Counter(Desc{Name: "deepsecure_bank_hits_total",
		Help: "Inferences served from a pre-garbled bank entry."})
	mBankMisses = Default.Counter(Desc{Name: "deepsecure_bank_misses_total",
		Help: "Inferences that fell back to live garbling with a bank configured."})
	mBankAvailable = Default.Gauge(Desc{Name: "deepsecure_bank_available",
		Help: "Pre-garbled executions currently banked."})
	mBankRefills = Default.Counter(Desc{Name: "deepsecure_bank_refills_total",
		Help: "Executions garbled ahead into banks (setup fills and background refills)."})
	mBankSpills = Default.Counter(Desc{Name: "deepsecure_bank_spills_total",
		Help: "Banked executions spilled to disk."})

	mAdmissionQueueDepth = Default.Gauge(Desc{Name: "deepsecure_admission_queue_depth",
		Help: "Sessions currently waiting in the admission queue."})
	mSessionsQueued = Default.Counter(Desc{Name: "deepsecure_sessions_queued_total",
		Help: "Sessions that waited in the admission queue before being served."})
	mSessionsShed = Default.Counter(Desc{Name: "deepsecure_sessions_shed_total",
		Help: "Sessions refused with MsgBusy by the admission controller."})

	mPanics = Default.Counter(Desc{Name: "deepsecure_panics_total",
		Help: "Panics recovered at session-owned goroutine boundaries and converted into session errors."})

	mGatesAnd = Default.Counter(Desc{Name: "deepsecure_gates_total",
		Help:   "Gates processed by the crypto cores, by kind.",
		Labels: []Label{{"kind", "and"}}})
	mGatesFree = Default.Counter(Desc{Name: "deepsecure_gates_total",
		Labels: []Label{{"kind", "free"}}})
	mGateTime = Default.Counter(Desc{Name: "deepsecure_gate_time_seconds_total",
		Help:  "Cumulative crypto-core time (garbling + evaluation kernels).",
		Scale: 1e-9})
)

// ActiveSpan is a started phase timer. It is a value type — starting
// and ending a span allocates nothing.
type ActiveSpan struct {
	phase Phase
	t0    time.Time
}

// Span starts a timer for one protocol phase. End observes the elapsed
// time into the phase histogram and returns it, so callers backfill
// their per-call Stats from the same clock reading the registry saw —
// the two can never disagree.
func Span(p Phase) ActiveSpan { return ActiveSpan{phase: p, t0: time.Now()} }

// End stops the span. The duration is returned even when recording is
// disabled (the clock always runs; only the histogram write is gated).
func (s ActiveSpan) End() time.Duration {
	d := time.Since(s.t0)
	if enabled.Load() {
		mPhaseSeconds[s.phase].Observe(int64(d))
	}
	return d
}

// ObservePhase records an externally measured duration for a phase.
// Engines that already accumulate a phase across levels observe the
// total once per inference through this.
func ObservePhase(p Phase, d time.Duration) {
	if !enabled.Load() {
		return
	}
	mPhaseSeconds[p].Observe(int64(d))
}

// ObserveInference records one end-to-end inference (or fused batch)
// latency.
func ObserveInference(d time.Duration) {
	if !enabled.Load() {
		return
	}
	mInferenceSeconds.Observe(int64(d))
}

// IncSessions counts an accepted session.
func IncSessions() {
	if enabled.Load() {
		mSessions.Inc()
	}
}

// AddActiveSessions moves the active-session gauge (+1 on accept, -1 on
// close).
func AddActiveSessions(delta int64) {
	if enabled.Load() {
		mActive.Add(delta)
	}
}

// IncErrors counts a session that ended in error.
func IncErrors() {
	if enabled.Load() {
		mErrors.Inc()
	}
}

// AddInferences counts completed inferences (batch size for a fused
// batch).
func AddInferences(n int64) {
	if enabled.Load() {
		mInferences.Add(n)
	}
}

// IncBatches counts a completed fused batch of two or more samples.
func IncBatches() {
	if enabled.Load() {
		mBatches.Inc()
	}
}

// AddBytesSent counts transport bytes flushed to the wire.
func AddBytesSent(n int64) {
	if enabled.Load() {
		mBytesSent.Add(n)
	}
}

// AddBytesReceived counts transport bytes read off the wire.
func AddBytesReceived(n int64) {
	if enabled.Load() {
		mBytesRecv.Add(n)
	}
}

// SetOTPoolDepth publishes a pool's available random-OT count.
func SetOTPoolDepth(role OTRole, n int) {
	if enabled.Load() && role < numOTRoles {
		mOTPoolDepth[role].Set(int64(n))
	}
}

// AddOTPooled counts random OTs precomputed into a pool.
func AddOTPooled(n int64) {
	if enabled.Load() {
		mOTPooled.Add(n)
	}
}

// AddOTConsumed counts pooled OTs consumed by derandomization.
func AddOTConsumed(n int64) {
	if enabled.Load() {
		mOTConsumed.Add(n)
	}
}

// IncOTRefills counts one pool refill run.
func IncOTRefills() {
	if enabled.Load() {
		mOTRefills.Inc()
	}
}

// AddBankHits / AddBankMisses count banked-vs-live garbling decisions.
func AddBankHits(n int64) {
	if enabled.Load() {
		mBankHits.Add(n)
	}
}

// AddBankMisses counts bank fallbacks to live garbling.
func AddBankMisses(n int64) {
	if enabled.Load() {
		mBankMisses.Add(n)
	}
}

// SetBankAvailable publishes the bank depth gauge.
func SetBankAvailable(n int) {
	if enabled.Load() {
		mBankAvailable.Set(int64(n))
	}
}

// IncBankRefills counts one execution garbled ahead into a bank.
func IncBankRefills() {
	if enabled.Load() {
		mBankRefills.Inc()
	}
}

// IncBankSpills counts one banked execution spilled to disk.
func IncBankSpills() {
	if enabled.Load() {
		mBankSpills.Inc()
	}
}

// AddAdmissionQueueDepth moves the admission queue-depth gauge (+1 on
// enqueue, -1 on dequeue).
func AddAdmissionQueueDepth(delta int64) {
	if enabled.Load() {
		mAdmissionQueueDepth.Add(delta)
	}
}

// IncSessionsQueued counts a session that waited in the admission queue.
func IncSessionsQueued() {
	if enabled.Load() {
		mSessionsQueued.Inc()
	}
}

// IncSessionsShed counts a session refused with MsgBusy.
func IncSessionsShed() {
	if enabled.Load() {
		mSessionsShed.Inc()
	}
}

// Panicked converts a recovered panic value into a session error and
// counts it. Every session-owned goroutine boundary (mux reader,
// evaluation contexts, scheduler chunks, bank/OT refill workers) funnels
// its recover() through here, so deepsecure_panics_total is the single
// "a bug fired but the process kept serving" signal. The returned error
// carries the panic site and value; the goroutine stack goes to stderr
// via log so the trace survives even when the session error is dropped.
// Unlike the recording helpers above, Panicked ignores SetEnabled: a
// contained panic must never be invisible.
func Panicked(site string, v any) error {
	mPanics.Inc()
	log.Printf("obs: recovered panic in %s: %v\n%s", site, v, debug.Stack())
	return fmt.Errorf("%s: recovered panic: %v", site, v)
}

// PanicCount returns the number of panics recovered so far, for tests.
func PanicCount() int64 { return mPanics.Value() }

// InferenceLatencySnapshot returns the current cumulative end-to-end
// inference latency histogram — the signal the admission controller's
// windowed p99 guard differences (via HistogramSnapshot.Delta) to see
// recent latency instead of the process lifetime.
func InferenceLatencySnapshot() HistogramSnapshot {
	return mInferenceSeconds.Snapshot()
}

// AddGates folds a finished engine run's gate counts and crypto-core
// time into the global gate counters.
func AddGates(and, free int64, gateTime time.Duration) {
	if !enabled.Load() {
		return
	}
	mGatesAnd.Add(and)
	mGatesFree.Add(free)
	mGateTime.Add(int64(gateTime))
}

// ServingLine renders the one-line operational summary deepsecure-serve
// logs periodically. It is computed from a registry Snapshot — the same
// source /metrics and /debug/stats serve — so the log line cannot drift
// from the scrape surface.
func ServingLine(s Snapshot) string {
	cv := func(name string, labels ...Label) int64 {
		m, _ := s.Get(name, labels...)
		return m.Value
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sessions=%d active=%d inferences=%d batches=%d errors=%d",
		cv("deepsecure_sessions_total"),
		cv("deepsecure_sessions_active"),
		cv("deepsecure_inferences_total"),
		cv("deepsecure_batches_total"),
		cv("deepsecure_session_errors_total"))
	fmt.Fprintf(&b, " sent=%.1fMB recv=%.1fMB",
		float64(cv("deepsecure_bytes_total", Label{"direction", "sent"}))/1e6,
		float64(cv("deepsecure_bytes_total", Label{"direction", "received"}))/1e6)
	if lat, ok := s.Get("deepsecure_inference_seconds"); ok && lat.Hist.Count() > 0 {
		fmt.Fprintf(&b, " inf_p50=%s inf_p95=%s",
			time.Duration(lat.Hist.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(lat.Hist.Quantile(0.95)).Round(time.Microsecond))
	}
	if q, sh := cv("deepsecure_admission_queue_depth"), cv("deepsecure_sessions_shed_total"); q > 0 || sh > 0 {
		fmt.Fprintf(&b, " adm_queue=%d shed=%d", q, sh)
	}
	if p := cv("deepsecure_panics_total"); p > 0 {
		fmt.Fprintf(&b, " panics=%d", p)
	}
	hits, misses := cv("deepsecure_bank_hits_total"), cv("deepsecure_bank_misses_total")
	if hits+misses > 0 {
		fmt.Fprintf(&b, " bank_hit=%.0f%%", 100*float64(hits)/float64(hits+misses))
	}
	fmt.Fprintf(&b, " ot_pool=%d", cv("deepsecure_ot_pool_depth", Label{"role", "receiver"}))
	gates := cv("deepsecure_gates_total", Label{"kind", "and"}) +
		cv("deepsecure_gates_total", Label{"kind", "free"})
	gateNs := cv("deepsecure_gate_time_seconds_total")
	if gates > 0 && gateNs > 0 {
		fmt.Fprintf(&b, " gates=%.2fM (%.2f Mgates/s)",
			float64(gates)/1e6, float64(gates)/1e6/(float64(gateNs)/1e9))
	}
	return b.String()
}
