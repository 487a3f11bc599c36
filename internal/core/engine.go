package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/sched"
	"deepsecure/internal/transport"
)

// This file is the level-scheduled execution engine behind every
// inference sub-stream. One garbler and one evaluator engine walk the
// compiled circuit.Schedule for a batch of B independent samples — a
// single inference is a batch of one — as a staged pipeline:
//
//	garbler:   [garble workers] → chunk buffer → [writer goroutine] → conn
//	evaluator: conn → [prefetch goroutine] → frame ring → [eval workers]
//
// Each level's gates are garbled/evaluated by a gc.Pool over the SoA
// level kernel (gc.BatchGarbler/BatchEvaluator), samples innermost inside
// every gate; completed table chunks stream to the peer while the next
// level is being garbled, and on the evaluator a prefetcher keeps a
// bounded ring of table frames ahead of the worker pool, so neither AES
// throughput nor transport latency idles the other. Input, OT, and output
// steps are barriers executed on the engine's goroutine, exactly where
// the tape recorded them; an input step's OT exchange covers all B
// samples at once, and a level's tables interleave gate-major with
// samples innermost (gate rank i, sample s at (i*B+s)*TableSize). At B=1
// that layout is the plain per-gate stream. The same engine pair also
// runs the §3.3 outsourced deployment (outsourced.go) at B=1 over its
// own compiled program.
//
// Determinism: hash tweaks and table offsets come from the schedule
// (GIDBase + in-level rank), and chunk flushing depends only on the
// schedule, B and ChunkBytes — so the byte stream is identical for any
// worker count, and Workers=1 is the sequential mode the conformance
// tests pin against.

// EngineConfig tunes the level-scheduled execution engine.
type EngineConfig struct {
	// Workers is the garble/evaluate worker-pool size. 0 (the default)
	// derives it from runtime.GOMAXPROCS; 1 selects the fully sequential
	// in-line mode.
	Workers int
	// ChunkBytes is the garbled-table streaming chunk size: the garbler
	// hands a table buffer to its writer goroutine whenever it grows past
	// this threshold (at a level boundary). 0 defaults to 1 MiB. Both
	// parties may use different values; the evaluator reassembles frames
	// regardless of their boundaries.
	ChunkBytes int
	// Pipeline bounds how many inferences may be in flight on one
	// session at once (cross-inference pipelining): with depth d > 1 the
	// client garbles inference k+1 while inference k's output round-trip
	// and evaluation tail are still pending, and the server evaluates up
	// to d inferences concurrently. 0 defaults to DefaultPipelineDepth;
	// 1 disables overlap (inference framing stays serial, the v3
	// behavior modulo tags). On a server this is also the announced
	// window clients are validated against; a client's effective window
	// is min(its own depth, the server's announcement).
	Pipeline int
	// MaxBatch bounds how many samples one batched inference
	// (InferBatch, protocol v5) may fuse into a single schedule walk. A
	// batch occupies one pipeline-window slot but needs B× the label and
	// table memory of a single inference, so the server owns a policy
	// cap announced alongside the window; a client's effective maximum
	// is min(its own MaxBatch, the announcement). 0 defaults to
	// DefaultMaxBatch; values clamp to [1, 256].
	MaxBatch int
	// Bank, when enabled (Depth > 0), pre-garbles whole inferences on
	// the client during idle time (garble-ahead execution banks): the
	// session fills a per-program bank at setup and refills it behind a
	// low-water policy, and each inference that finds a banked execution
	// skips garbling entirely — the online critical path is label
	// selection, stream writes from the bank, and the OT derandomization
	// exchange. Exhaustion transparently falls back to live garbling.
	// Client-side only; servers ignore it. Memory cost per banked
	// execution ≈ the circuit's table bytes (ANDs × 32) plus input and
	// output labels — budget Depth accordingly or set Bank.SpillDir.
	Bank bank.Config
	// SpeculativeOT loosens the server's per-inference OT-pool
	// sequencing on pipelined sessions: an inference issues ALL of its
	// input steps' derandomization corrections at its first evaluator
	// step (releasing the pool turn immediately) and collects the
	// responses in ticket order as the walk reaches each step, so
	// inference k+1's corrections overlap inference k's evaluation tail
	// and the per-step round-trips of one inference collapse into a
	// single flight. Server-side only; it changes server→client frame
	// timing but not frame order, and requires an enabled OT pool (it is
	// a no-op otherwise).
	SpeculativeOT bool
	// PrivatePool opts this engine out of the process-wide shared
	// work-stealing scheduler (internal/sched). By default every
	// session's level runs submit chunks to one sched.Default() worker
	// set sized to the machine, so S concurrent sessions share
	// GOMAXPROCS workers instead of spawning S×Workers goroutines.
	// Setting PrivatePool restores a dedicated per-pool worker set —
	// the pre-shared behavior, useful for isolation benchmarks and as
	// the baseline the shared-vs-private conformance tests pin against.
	// Either way the produced byte streams are identical; only
	// scheduling changes.
	PrivatePool bool
	// Deadlines bounds the protocol's phases (handshake, OT setup,
	// per-inference) by wall time, complementing the transport-level
	// idle timeout: the idle timeout catches peers that stop moving
	// bytes, the phase deadlines catch peers that keep trickling them.
	// Zero fields disable that phase's deadline. Enforcement needs a
	// breaker on the session's transport.Conn — the server installs one
	// per accepted connection; see DeadlineConfig.
	Deadlines DeadlineConfig
}

// DefaultPipelineDepth is the in-flight window applied when
// EngineConfig.Pipeline is zero: one inference garbling ahead of the one
// in its output round-trip.
const DefaultPipelineDepth = 2

// maxPipelineDepth caps the window so a misconfigured or hostile peer
// cannot demand unbounded per-inference server state.
const maxPipelineDepth = 32

func (c EngineConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// newPool builds the gc.Pool this configuration calls for: a view of
// the process-wide shared scheduler fanning out at most workers() ways,
// or a dedicated worker set when PrivatePool is set.
func (c EngineConfig) newPool() *gc.Pool {
	if c.PrivatePool {
		return gc.NewPool(c.workers())
	}
	return gc.NewSharedPool(sched.Default(), c.workers())
}

func (c EngineConfig) pipeline() int {
	d := c.Pipeline
	if d == 0 {
		d = DefaultPipelineDepth
	}
	if d < 1 {
		d = 1
	}
	if d > maxPipelineDepth {
		d = maxPipelineDepth
	}
	return d
}

// PipelineDepth returns the effective in-flight window this
// configuration resolves to (defaults applied, clamped to [1, 32]) —
// what a server announces and enforces.
func (c EngineConfig) PipelineDepth() int { return c.pipeline() }

// DefaultMaxBatch is the batched-inference sample cap applied when
// EngineConfig.MaxBatch is zero.
const DefaultMaxBatch = 32

// maxBatchCap bounds the negotiable batch size so a misconfigured or
// hostile peer cannot demand unbounded per-batch server state (labels
// and tables scale linearly with B).
const maxBatchCap = 256

func (c EngineConfig) maxBatch() int {
	b := c.MaxBatch
	if b == 0 {
		b = DefaultMaxBatch
	}
	if b < 1 {
		b = 1
	}
	if b > maxBatchCap {
		b = maxBatchCap
	}
	return b
}

// MaxBatchSize returns the effective batched-inference sample cap this
// configuration resolves to (defaults applied, clamped to [1, 256]) —
// what a server announces and enforces.
func (c EngineConfig) MaxBatchSize() int { return c.maxBatch() }

// tableChunk is the default garbled-table flush threshold: tables stream
// to the evaluator in frames of roughly this size so neither party ever
// holds a whole netlist's tables in memory (§3.5).
const tableChunk = 1 << 20

func (c EngineConfig) chunkBytes() int {
	if c.ChunkBytes > 0 {
		return c.ChunkBytes
	}
	return tableChunk
}

// tableWriter streams finished table chunks on a dedicated goroutine so
// transport writes overlap the next level's garbling. Buffers cycle
// through the free channel (transport.Conn copies payloads into its own
// write buffer, so a chunk is reusable the moment Send returns).
type tableWriter struct {
	ch   chan []byte
	done chan error
	free chan []byte

	// elapsed accumulates wall time inside Send calls — the garbler's
	// table_write phase. Written only by the writer goroutine; readable
	// after finish returns.
	elapsed time.Duration
}

func startTableWriter(conn transport.FrameConn, free chan []byte) *tableWriter {
	w := &tableWriter{
		ch:   make(chan []byte, 2),
		done: make(chan error, 1),
		free: free,
	}
	go func() {
		var err error
		for buf := range w.ch {
			if err == nil {
				// Contain writer panics into the stream error: the engine
				// goroutine is blocked on done (or the ch send) and an
				// escaped panic here would strand it mid-inference.
				err = func() (err error) {
					defer func() {
						if v := recover(); v != nil {
							err = obs.Panicked("core: table writer", v)
						}
					}()
					t0 := time.Now()
					err = conn.Send(transport.MsgTables, buf)
					w.elapsed += time.Since(t0)
					return err
				}()
			}
			select {
			case w.free <- buf[:0]:
			default:
			}
		}
		w.done <- err
	}()
	return w
}

// finish closes the stream and waits for the writer to drain; after it
// returns the caller owns the connection again.
func (w *tableWriter) finish() error {
	close(w.ch)
	return <-w.done
}

// sendConstLabels draws a fresh batch garbler for b samples — its own
// Free-XOR delta and wire labels per sample — and sends the sub-stream's
// const-label frame (the b false-labels, then the b true-labels),
// appended to buf. It returns the garbler and the sent payload, whose
// buffer the caller may reuse.
func sendConstLabels(conn transport.FrameConn, rng io.Reader, b int, buf []byte) (*gc.BatchGarbler, []byte, error) {
	g, err := gc.NewBatchGarbler(rng, b)
	if err != nil {
		return nil, nil, err
	}
	payload, err := g.AppendConstLabels(buf)
	if err != nil {
		return nil, nil, err
	}
	return g, payload, conn.Send(transport.MsgConstLabels, payload)
}

// batchGarbleEngine runs the garbler's side of one inference sub-stream
// of b samples (b=1 for a single inference) over a compiled schedule; the
// session reuses its buffers across inferences.
type batchGarbleEngine struct {
	sched *circuit.Schedule
	g     *gc.BatchGarbler
	pool  *gc.Pool
	conn  transport.FrameConn
	ots   *precomp.SenderPool
	cfg   EngineConfig
	b     int

	// inputBits holds each sample's input bit stream; all samples share
	// the schedule's cursor (they walk the same wire sequence).
	inputBits [][]bool
	cursor    int

	labelBuf []byte
	outZero  []gc.Label // wire-major, samples innermost

	cur  []byte      // table chunk being filled
	free chan []byte // recycled chunk buffers

	// gateTime accumulates the wall time of the per-level GarbleLevel
	// calls — the hash-core cost this sub-stream paid, transport
	// excluded.
	gateTime time.Duration
	// writeTime accumulates wall time pushing table chunks into the
	// transport (the table_write phase).
	writeTime time.Duration
}

func (en *batchGarbleEngine) run() error {
	en.g.Grow(en.sched.NumWires)
	for si := range en.sched.Steps {
		st := &en.sched.Steps[si]
		var err error
		switch st.Kind {
		case circuit.StepInputs:
			err = en.doInputs(st)
		case circuit.StepOutputs:
			err = en.doOutputs(st)
		case circuit.StepLevels:
			err = en.doLevels(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (en *batchGarbleEngine) doInputs(st *circuit.Step) error {
	if st.Party == circuit.Garbler {
		payload := en.labelBuf[:0]
		for _, w := range st.Wires {
			if err := en.g.AssignInput(w); err != nil {
				return err
			}
			if en.cursor >= len(en.inputBits[0]) {
				return fmt.Errorf("core: garbler input underrun at wire %d", w)
			}
			for s := 0; s < en.b; s++ {
				l, err := en.g.ActiveLabel(w, s, en.inputBits[s][en.cursor])
				if err != nil {
					return err
				}
				payload = append(payload, l[:]...)
			}
			en.cursor++
		}
		en.labelBuf = payload[:0] // keep the (possibly grown) buffer
		return en.conn.Send(transport.MsgInputLabels, payload)
	}
	// Evaluator inputs travel by OT — ONE batch for all B samples of the
	// step (wire-major, samples innermost), so the whole batch pays the
	// round-trips of a single inference.
	pairs := make([][2]ot.Msg, len(st.Wires)*en.b)
	for i, w := range st.Wires {
		if err := en.g.AssignInput(w); err != nil {
			return err
		}
		for s := 0; s < en.b; s++ {
			l0, err := en.g.ZeroLabel(w, s)
			if err != nil {
				return err
			}
			l1 := l0.XOR(en.g.R[s])
			pairs[i*en.b+s] = [2]ot.Msg{ot.Msg(l0), ot.Msg(l1)}
		}
	}
	return en.ots.Send(pairs)
}

func (en *batchGarbleEngine) doOutputs(st *circuit.Step) error {
	for _, w := range st.Wires {
		for s := 0; s < en.b; s++ {
			l, err := en.g.ZeroLabel(w, s)
			if err != nil {
				return err
			}
			en.outZero = append(en.outZero, l)
		}
	}
	return nil
}

// doLevels executes one run of gate levels for all b samples, streaming
// table chunks through the writer goroutine while subsequent levels
// garble: a chunk is emitted at the first level boundary where it holds
// at least ChunkBytes, each level contributing ANDs×b tables.
func (en *batchGarbleEngine) doLevels(st *circuit.Step) (err error) {
	for _, w := range st.PreDrops {
		en.g.Drop(w)
	}
	chunk := en.cfg.chunkBytes()
	async := en.pool.Workers() > 1
	var wr *tableWriter
	if async {
		wr = startTableWriter(en.conn, en.free)
	}
	emit := func(buf []byte) error {
		if async {
			wr.ch <- buf
			return nil
		}
		t0 := time.Now()
		err := en.conn.Send(transport.MsgTables, buf)
		en.writeTime += time.Since(t0)
		select {
		case en.free <- buf[:0]:
		default:
		}
		return err
	}
	cur := en.cur[:0]
	for li := st.First; li < st.First+st.N && err == nil; li++ {
		lv := &en.sched.Levels[li]
		ands, frees := en.sched.LevelGates(lv)
		need := lv.ANDs * en.b * gc.TableSize
		off := len(cur)
		for cap(cur) < off+need {
			cur = append(cur[:cap(cur)], 0)
		}
		cur = cur[:off+need]
		t0 := time.Now()
		err = en.g.GarbleLevel(ands, frees, lv.GIDBase, cur[off:off+need], en.pool)
		en.gateTime += time.Since(t0)
		if err != nil {
			break
		}
		for _, w := range lv.Drops {
			en.g.Drop(w)
		}
		if len(cur) >= chunk {
			if err = emit(cur); err != nil {
				break
			}
			cur = grabChunk(en.free, chunk)
		}
	}
	if err == nil && len(cur) > 0 {
		err = emit(cur)
		cur = nil
	}
	if async {
		// Always drain the writer, even on error, so it never outlives
		// the inference or races the main goroutine for the connection.
		werr := wr.finish()
		en.writeTime += wr.elapsed
		if err == nil {
			err = werr
		}
	}
	en.cur = grabChunk(en.free, chunk)
	return err
}

// grabChunk takes an empty chunk buffer from the recycle channel, or
// allocates one sized for the streaming chunk plus slack.
func grabChunk(free chan []byte, chunkBytes int) []byte {
	select {
	case buf := <-free:
		return buf
	default:
		return make([]byte, 0, chunkBytes+chunkBytes/4)
	}
}

// frameRingDepth bounds the evaluator's prefetched table frames: the
// prefetch goroutine stays at most this many frames ahead of the
// evaluate pool, preserving the §3.5 bounded-memory property.
const frameRingDepth = 4

// errPrefetchStopped is the in-band signal that the prefetch ring closed
// before the run's table budget was met; the prefetcher's own error (on
// perr) is the authoritative cause.
var errPrefetchStopped = errors.New("core: table prefetch stopped early")

// speculativeChoices slices the evaluator's full input-bit stream into
// one choice vector per evaluator-input step (each wire's bit repeated b
// times, samples innermost) — the whole
// inference's OT demand, computable before any step runs because only
// evaluator steps consume the stream.
func speculativeChoices(sched *circuit.Schedule, inputBits []bool, b int) ([][]bool, error) {
	var steps [][]bool
	cur := 0
	for si := range sched.Steps {
		st := &sched.Steps[si]
		if st.Kind != circuit.StepInputs || st.Party != circuit.Evaluator {
			continue
		}
		choices := make([]bool, len(st.Wires)*b)
		for i := range st.Wires {
			if cur >= len(inputBits) {
				return nil, fmt.Errorf("core: evaluator input underrun at wire %d", st.Wires[i])
			}
			for s := 0; s < b; s++ {
				choices[i*b+s] = inputBits[cur]
			}
			cur++
		}
		steps = append(steps, choices)
	}
	return steps, nil
}

// speculativeIssue runs the issue half of the speculative OT protocol
// for one inference: under the pool-order turn, put every step's
// corrections on the wire, then release the turn immediately — the
// FIFO state is fully advanced, so the next inference's corrections
// overlap this one's evaluation and collects. A failed issue holds the
// turn (the pool is desynchronized; teardown's Abort unblocks waiters),
// mirroring the non-speculative path's failed-exchange policy.
func speculativeIssue(ots *precomp.ReceiverPool, seq *precomp.Sequencer, turn int64, sched *circuit.Schedule, inputBits []bool, b int) ([]*precomp.PendingReceive, error) {
	steps, err := speculativeChoices(sched, inputBits, b)
	if err != nil {
		return nil, err
	}
	if seq != nil {
		if err := seq.Acquire(turn); err != nil {
			return nil, err
		}
	}
	prs, err := ots.IssueAll(steps)
	if err != nil {
		return nil, err
	}
	if seq != nil {
		seq.Release(turn)
	}
	return prs, nil
}

// recvBatchEvaluator receives a sub-stream's const-label frame — the b
// false-labels, then the b true-labels — and returns a batch evaluator
// for b samples with the constant wires set.
func recvBatchEvaluator(conn transport.FrameConn, b int) (*gc.BatchEvaluator, error) {
	constLabels, err := conn.Recv(transport.MsgConstLabels)
	if err != nil {
		return nil, err
	}
	if len(constLabels) != 2*b*gc.LabelSize {
		return nil, fmt.Errorf("core: const-label frame has %d bytes, want %d", len(constLabels), 2*b*gc.LabelSize)
	}
	e, err := gc.NewBatchEvaluator(b)
	if err != nil {
		return nil, err
	}
	for s := 0; s < b; s++ {
		var lf, lt gc.Label
		copy(lf[:], constLabels[s*gc.LabelSize:])
		copy(lt[:], constLabels[(b+s)*gc.LabelSize:])
		e.SetLabel(circuit.WFalse, s, lf)
		e.SetLabel(circuit.WTrue, s, lt)
	}
	return e, nil
}

// batchEvalEngine runs the evaluator's side of one inference sub-stream
// of b samples (b=1 for a single inference) over a compiled schedule.
type batchEvalEngine struct {
	sched *circuit.Schedule
	e     *gc.BatchEvaluator
	pool  *gc.Pool
	conn  transport.FrameConn
	ots   *precomp.ReceiverPool
	cfg   EngineConfig
	b     int

	// inputBits is the evaluator's bit stream (the model's weight bits)
	// — identical for every sample; only the labels differ per sample.
	inputBits []bool
	cursor    int

	// seq, when set, is the pipelined session's ordered-admission gate
	// to the shared OT pool: this sub-stream Acquires seqTurn at its
	// first evaluator-input step, runs all evalSteps exchanges (each
	// covering all b samples) while holding it, and Releases after the
	// last — the deterministic consume order (all of inference k before
	// any of k+1) the garbler derives from its serial garble order.
	seq       *precomp.Sequencer
	seqTurn   int64
	evalSteps int
	stepsDone int

	// spec switches OT consumption to the speculative issue/collect
	// protocol (EngineConfig.SpeculativeOT): at the first evaluator-input
	// step the engine issues ALL steps' corrections — each wire's bit
	// expanded ×b — in one flight and releases the pool turn immediately;
	// each step then collects its response in ticket order. Requires an
	// enabled pool.
	spec    bool
	specPrs []*precomp.PendingReceive

	// progress, when set, is bumped once per evaluated level so
	// idle-timeout transport wrappers can tell "quiet because the
	// evaluation tail is still computing" from a stalled peer.
	progress *atomic.Int64

	pending   []byte
	outLabels []gc.Label // wire-major, samples innermost

	// gateTime accumulates the wall time of the per-level EvaluateLevel
	// calls (table waits excluded).
	gateTime time.Duration
	// readTime accumulates wall time blocked on table frames from the
	// wire (the table_read phase).
	readTime time.Duration
}

func (en *batchEvalEngine) run() error {
	en.e.Grow(en.sched.NumWires)
	if en.seq != nil && en.evalSteps == 0 {
		// No OT work this inference: pass the turn through so later
		// inferences are not gated forever.
		if err := en.seq.Acquire(en.seqTurn); err != nil {
			return err
		}
		en.seq.Release(en.seqTurn)
	}
	for si := range en.sched.Steps {
		st := &en.sched.Steps[si]
		var err error
		switch st.Kind {
		case circuit.StepInputs:
			err = en.doInputs(st)
		case circuit.StepOutputs:
			err = en.doOutputs(st)
		case circuit.StepLevels:
			err = en.doLevels(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (en *batchEvalEngine) doInputs(st *circuit.Step) error {
	if st.Party == circuit.Garbler {
		payload, err := en.conn.Recv(transport.MsgInputLabels)
		if err != nil {
			return err
		}
		if len(payload) != len(st.Wires)*en.b*gc.LabelSize {
			return fmt.Errorf("core: input-label frame has %d bytes, want %d",
				len(payload), len(st.Wires)*en.b*gc.LabelSize)
		}
		for i, w := range st.Wires {
			for s := 0; s < en.b; s++ {
				var l gc.Label
				copy(l[:], payload[(i*en.b+s)*gc.LabelSize:])
				en.e.SetLabel(w, s, l)
			}
		}
		return nil
	}
	if en.spec {
		if en.stepsDone == 0 {
			prs, err := speculativeIssue(en.ots, en.seq, en.seqTurn, en.sched, en.inputBits, en.b)
			if err != nil {
				return err
			}
			en.specPrs = prs
		}
		pr := en.specPrs[en.stepsDone]
		en.stepsDone++
		msgs, err := pr.Collect()
		if err != nil {
			return err
		}
		en.cursor += len(st.Wires)
		for i, w := range st.Wires {
			for s := 0; s < en.b; s++ {
				en.e.SetLabel(w, s, gc.Label(msgs[i*en.b+s]))
			}
		}
		return nil
	}
	// One OT batch covers all B samples of the step: every sample selects
	// with the same weight bit, each receiving its own sample's label.
	choices := make([]bool, len(st.Wires)*en.b)
	for i := range st.Wires {
		if en.cursor >= len(en.inputBits) {
			return fmt.Errorf("core: evaluator input underrun at wire %d", st.Wires[i])
		}
		bit := en.inputBits[en.cursor]
		en.cursor++
		for s := 0; s < en.b; s++ {
			choices[i*en.b+s] = bit
		}
	}
	if en.seq != nil && en.stepsDone == 0 {
		if err := en.seq.Acquire(en.seqTurn); err != nil {
			return err
		}
	}
	msgs, err := en.ots.Receive(choices)
	if en.seq != nil {
		en.stepsDone++
		// Only pass the turn on after a clean final exchange: a failed
		// exchange leaves the pool desynchronized from the garbler, and
		// handing it to the next inference would just manufacture a
		// second, misleading desync error. Teardown's Abort unblocks any
		// waiters instead.
		if err == nil && en.stepsDone == en.evalSteps {
			en.seq.Release(en.seqTurn)
		}
	}
	if err != nil {
		return err
	}
	for i, w := range st.Wires {
		for s := 0; s < en.b; s++ {
			en.e.SetLabel(w, s, gc.Label(msgs[i*en.b+s]))
		}
	}
	return nil
}

func (en *batchEvalEngine) doOutputs(st *circuit.Step) error {
	for _, w := range st.Wires {
		for s := 0; s < en.b; s++ {
			l, err := en.e.Label(w, s)
			if err != nil {
				return err
			}
			en.outLabels = append(en.outLabels, l)
		}
	}
	return nil
}

// doLevels evaluates one run of gate levels for all b samples, drawing
// each level's table block from a tableRun (which prefetches frames on a
// goroutine when the engine is parallel); the run's table budget is the
// schedule's, scaled by b.
func (en *batchEvalEngine) doLevels(st *circuit.Step) error {
	for _, w := range st.PreDrops {
		en.e.Drop(w)
	}
	tr := startTableRun(en.conn, en.pool.Workers() > 1, st.TableBytes*en.b, en.pending)
	var err error
	for li := st.First; li < st.First+st.N && err == nil; li++ {
		lv := &en.sched.Levels[li]
		ands, frees := en.sched.LevelGates(lv)
		var block []byte
		if block, err = tr.level(lv.ANDs * en.b * gc.TableSize); err != nil {
			break
		}
		t0 := time.Now()
		err = en.e.EvaluateLevel(ands, frees, lv.GIDBase, block, en.pool)
		en.gateTime += time.Since(t0)
		if err != nil {
			break
		}
		if en.progress != nil {
			en.progress.Add(1)
		}
		for _, w := range lv.Drops {
			en.e.Drop(w)
		}
	}
	en.pending, err = tr.finish(err)
	en.readTime += tr.readTime
	return err
}

// tableRun streams one level run's garbled tables to an evaluation
// engine: constructed per StepLevels step with the run's total byte
// budget (the schedule's TableBytes, scaled by the sample count), it
// hands back exactly the requested bytes per
// level. With async set, a prefetch goroutine receives table frames into
// a bounded ring ahead of the evaluate pool — preserving the §3.5
// bounded-memory property — while a sequential engine receives frames
// inline. The pending buffer is recycled across runs and (through the
// session's buffer pool) across inferences.
type tableRun struct {
	conn    transport.FrameConn
	async   bool
	total   int
	pending []byte
	off     int
	got     int
	frames  chan []byte
	perr    chan error

	// readTime accumulates wall time blocked in next() waiting for
	// frames — what the evaluator actually spent on the table stream
	// (ring hits cost ~nothing; a dry ring charges the wire wait here).
	readTime time.Duration
}

func startTableRun(conn transport.FrameConn, async bool, total int, pending []byte) *tableRun {
	tr := &tableRun{conn: conn, async: async && total > 0, total: total, pending: pending[:0]}
	if tr.async {
		tr.frames = make(chan []byte, frameRingDepth)
		tr.perr = make(chan error, 1)
		go func(total int) {
			defer close(tr.frames)
			// Contain prefetcher panics: perr must carry exactly one value
			// or finish would block forever on a goroutine that died.
			defer func() {
				if v := recover(); v != nil {
					tr.perr <- obs.Panicked("core: table prefetcher", v)
				}
			}()
			rem := total
			for rem > 0 {
				p, err := tr.conn.Recv(transport.MsgTables)
				if err != nil {
					tr.perr <- err
					return
				}
				if len(p) > rem {
					tr.perr <- fmt.Errorf("core: garbled-table overrun (%d surplus bytes in run)", len(p)-rem)
					return
				}
				rem -= len(p)
				tr.frames <- p
			}
			tr.perr <- nil
		}(total)
	}
	return tr
}

// next yields the following table frame. In async mode a closed ring
// means the prefetcher exited early; it reports errPrefetchStopped and
// finish collects the prefetcher's actual verdict — perr carries exactly
// one value, consumed exactly once, there.
func (tr *tableRun) next() ([]byte, error) {
	if tr.async {
		p, ok := <-tr.frames
		if !ok {
			return nil, errPrefetchStopped
		}
		return p, nil
	}
	return tr.conn.Recv(transport.MsgTables)
}

// level returns the next need contiguous bytes of the run's table
// stream, receiving frames until they cover the request.
func (tr *tableRun) level(need int) ([]byte, error) {
	pending, off := tr.pending, tr.off
	for len(pending)-off < need {
		t0 := time.Now()
		p, err := tr.next()
		tr.readTime += time.Since(t0)
		if err != nil {
			tr.pending = pending
			tr.off = off
			return nil, err
		}
		tr.got += len(p)
		if tr.got > tr.total {
			tr.pending = pending
			tr.off = off
			return nil, fmt.Errorf("core: garbled-table overrun (%d surplus bytes in run)", tr.got-tr.total)
		}
		if off > 0 && len(pending)+len(p) > cap(pending) {
			// Compact consumed bytes instead of growing.
			pending = pending[:copy(pending, pending[off:])]
			off = 0
		}
		pending = append(pending, p...)
	}
	tr.pending = pending
	tr.off = off + need
	return pending[off : off+need], nil
}

// finish validates the run's stream accounting and drains the
// prefetcher; err is the level loop's verdict. It returns the recycled
// pending buffer and the run's final error.
func (tr *tableRun) finish(err error) ([]byte, error) {
	if err == nil && tr.off != len(tr.pending) {
		err = fmt.Errorf("core: %d unconsumed garbled-table bytes at run boundary", len(tr.pending)-tr.off)
	}
	if tr.async {
		// Drain the ring so the prefetcher can exit, then collect its
		// verdict (the channel's single value); it must not outlive the
		// run holding the connection.
		for range tr.frames {
		}
		perr := <-tr.perr
		switch {
		case err == errPrefetchStopped:
			// The ring closed under the main loop: the prefetcher's
			// error is the real one (a nil verdict here would mean the
			// run's table accounting is inconsistent).
			err = perr
			if err == nil {
				err = fmt.Errorf("core: table stream ended %d bytes short of the run's %d", tr.got, tr.total)
			}
		case err == nil && perr != nil:
			err = perr
		}
		if err == nil && tr.got != tr.total {
			err = fmt.Errorf("core: run received %d table bytes, want %d", tr.got, tr.total)
		}
	}
	return tr.pending[:0], err
}
