package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// This file is the server side of cross-inference pipelining: one
// reader goroutine demultiplexes the connection's tagged frames into
// per-inference evaluation contexts, so the server can evaluate
// inference k while the client is already streaming inference k+1 —
// hiding the output-label round-trip and the evaluation tail that
// previously serialized consecutive inferences. The pieces:
//
//	reader ──▶ per-inference inbox ──▶ evalCtx goroutine (batchEvalEngine)
//	       └─▶ OT inbox ─────────────▶ whichever ctx holds the pool turn
//	evalCtx ──▶ muxConn (mutex-serialized writes) ──▶ conn
//
// The in-flight window (transport.Window, depth = EngineConfig.Pipeline)
// bounds concurrent contexts, and a precomp.Sequencer serializes the
// contexts' access to the session's strictly-FIFO OT state into the
// deterministic order both parties derive from inference ids. Writes
// from contexts interleave at frame granularity; at depth 1 a single
// context exists at a time, so the wire stream is byte-identical to the
// serial path (pinned by TestPipelineDepth1Conformance).

// frame is one routed protocol frame, its inference tag already stripped
// and its type mapped back to the logical (untagged) protocol type.
type frame struct {
	typ     transport.MsgType
	payload []byte
}

// errSessionTorn marks errors that are consequences of session teardown
// (closed routing channels, aborted pool turns) rather than root causes:
// the main loop prefers the reader's protocol error or another context's
// hard error over these.
var errSessionTorn = errors.New("core: session torn down")

// routeStallTimeout bounds how long the demux reader will wait to route
// a frame into a context's inbox: far beyond any legitimate
// backpressure pause (consuming one inbox slot means evaluating at most
// a few gate levels), it exists so a hostile client flooding frames a
// context cannot legally consume wedges the session with an error
// instead of pinning the reader forever.
const routeStallTimeout = 5 * time.Minute

// muxConn is the shared half of a demultiplexed session connection: it
// serializes writes from concurrent contexts and, once the reader is
// started, serves OT-frame receives from the reader's routing instead of
// the socket. Before start it is a passthrough, so session setup (base
// OT phase, pool announcement) runs on it unchanged.
type muxConn struct {
	conn *transport.Conn

	wmu  sync.Mutex
	otCh chan frame
	stop chan struct{}

	started bool
}

func newMuxConn(conn *transport.Conn) *muxConn {
	return &muxConn{conn: conn, stop: make(chan struct{})}
}

func (m *muxConn) Send(t transport.MsgType, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.conn.Send(t, payload)
}

func (m *muxConn) sendTagged(t transport.MsgType, id uint64, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.conn.SendTagged(t, id, payload)
}

func (m *muxConn) Flush() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.conn.Flush()
}

func (m *muxConn) Recv(want transport.MsgType) ([]byte, error) {
	_, p, err := m.RecvAny(want)
	return p, err
}

// RecvAny receives the next OT frame routed by the reader (or reads the
// connection directly before the mux starts). It flushes pending writes
// first — the request this receive answers may still be buffered.
func (m *muxConn) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	if !m.started {
		return m.conn.RecvAny(want...)
	}
	return recvRouted(m.Flush, m.otCh, m.stop, "mid-OT-exchange", want)
}

// recvRouted is the shared routed-receive shape of a demultiplexed
// session: flush pending writes (the request this receive answers may
// still be buffered), then take the next routed frame, failing fast with
// a teardown-tagged error when the reader or the session is gone.
func recvRouted(flush func() error, ch <-chan frame, stop <-chan struct{}, scope string, want []transport.MsgType) (transport.MsgType, []byte, error) {
	if err := flush(); err != nil {
		return 0, nil, err
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return 0, nil, fmt.Errorf("core: session ended %s: %w", scope, errSessionTorn)
		}
		for _, w := range want {
			if f.typ == w {
				return f.typ, f.payload, nil
			}
		}
		return 0, nil, fmt.Errorf("core: protocol desync %s: got %v frame, want %v", scope, f.typ, want)
	case <-stop:
		return 0, nil, fmt.Errorf("core: teardown %s: %w", scope, errSessionTorn)
	}
}

// evalCtx is one in-flight inference on the server: its routed frame
// inbox and its death marker (closed when the context goroutine exits,
// so the reader stops routing to it). batch is the sub-stream's sample
// count (1 for a single inference).
type evalCtx struct {
	id    uint64
	batch int
	start time.Time // admission time, for the per-inference latency histogram
	inbox chan frame
	dead  chan struct{}
	// deadline is this inference's independent watchdog timer (nil when
	// no per-inference deadline is configured); runCtx stops it when the
	// context settles.
	deadline *time.Timer
}

// ctxConn is an evalCtx's view of the session connection: receives come
// from the context's routed inbox, sends are tagged with the inference
// id and serialized through the muxConn.
type ctxConn struct {
	m *sessionMux
	c *evalCtx
}

func (v *ctxConn) Send(t transport.MsgType, payload []byte) error {
	if t == transport.MsgOutputLabels {
		return v.m.mc.sendTagged(transport.MsgBatchOutputs, v.c.id, payload)
	}
	return v.m.mc.Send(t, payload)
}

func (v *ctxConn) Flush() error { return v.m.mc.Flush() }

func (v *ctxConn) Recv(want transport.MsgType) ([]byte, error) {
	_, p, err := v.RecvAny(want)
	return p, err
}

func (v *ctxConn) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	return recvRouted(v.m.mc.Flush, v.c.inbox, v.m.stop, fmt.Sprintf("mid-inference %d", v.c.id), want)
}

// muxEvent is a completion notification to the session's main loop.
// inferences is the settled sample count of a finished context, counted
// only on success.
type muxEvent struct {
	readerDone bool
	inferences int64
	err        error
}

// sessionMux runs one demultiplexed session on the server: every
// inference sub-stream, single or batched, shares the window, the
// routing, and the OT order.
type sessionMux struct {
	srv   *Server
	conn  *transport.Conn
	mc    *muxConn
	otp   *precomp.ReceiverPool
	seqr  *precomp.Sequencer
	win   *transport.Window
	sched *circuit.Schedule
	cfg   EngineConfig

	weightBits []bool
	wd         *watchdog // session phase watchdog (nil = no deadlines armed)

	events  chan muxEvent
	stop    chan struct{}
	ctxs    map[uint64]*evalCtx
	pool    *gc.Pool    // one shared-scheduler pool for every context
	bufs    chan []byte // recycled table-pending buffers, see getBuf
	spawned int         // reader-owned until readerDone, then main-owned

	// In-flight accounting for Stats: time with ≥2 inferences active is
	// the session's measured overlap. gateTime and the gate counters
	// accumulate per finished context (counts derived from the schedule,
	// kernel time measured by the engine).
	statMu       sync.Mutex
	inFlight     int
	maxInFlight  int
	overlapSince time.Time
	overlap      time.Duration
	gateTime     time.Duration
	andGates     int64
	freeGates    int64
}

// evalInputSteps counts a schedule's evaluator-input steps — one OT
// batch, so one request and one response, per step per inference.
func evalInputSteps(sched *circuit.Schedule) int {
	n := 0
	for i := range sched.Steps {
		if st := &sched.Steps[i]; st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator {
			n++
		}
	}
	return n
}

func newSessionMux(srv *Server, conn *transport.Conn, mc *muxConn, otp *precomp.ReceiverPool, sched *circuit.Schedule, weightBits []bool) *sessionMux {
	depth := srv.Engine.pipeline()
	// Every in-flight inference may have all of its OT responses routed
	// but uncollected at once; size the OT inbox so legitimate issued
	// flights never trip the unsolicited-frame check. The inbox exists
	// from here on: only a started mux routes OT frames.
	mc.otCh = make(chan frame, 2+depth*evalInputSteps(sched))
	return &sessionMux{
		srv:        srv,
		conn:       conn,
		mc:         mc,
		otp:        otp,
		pool:       srv.Engine.newPool(),
		seqr:       precomp.NewSequencer(1),
		win:        transport.NewWindow(depth),
		sched:      sched,
		cfg:        srv.Engine,
		weightBits: weightBits,
		events:     make(chan muxEvent, 1),
		stop:       mc.stop,
		ctxs:       make(map[uint64]*evalCtx, depth),
		bufs:       make(chan []byte, depth),
	}
}

// run serves the session until the client ends it, disconnects at an
// inference boundary, or an error tears it down. It fills st with the
// session's inference and overlap counters. Error priority: a context's
// own protocol error (bad frame contents, failed evaluation) returns
// immediately; teardown-consequence errors (closed routing channels,
// aborted pool turns) only surface if no root cause — the reader's
// protocol error, or a boundary-clean disconnect — explains them.
func (m *sessionMux) run(st *Stats) error {
	m.mc.started = true
	go m.readLoop()
	defer m.seqr.Abort() // unblock any context still gated on the pool order
	defer m.otp.Abort()  // and any OT collector gated on the ticket order
	defer close(m.stop)

	done := 0
	readerDone := false
	var readerErr error
	var tornErr error
	for {
		ev := <-m.events
		if ev.readerDone {
			readerDone = true
			readerErr = ev.err
			// The reader has closed every routing channel, so no context
			// can make further progress — abort the pool order now, not
			// just on return. A torn context skips Release (engine.go), so
			// a later context blocked in Acquire would otherwise never
			// emit its event and this loop would wait for it forever.
			m.seqr.Abort()
			m.otp.Abort()
		} else {
			done++
			switch {
			case ev.err == nil:
				st.Inferences += ev.inferences
			case errors.Is(ev.err, errSessionTorn) || errors.Is(ev.err, precomp.ErrSequencerAborted):
				if tornErr == nil {
					tornErr = ev.err
				}
				// A torn context may have died holding its pool turn
				// without Releasing; wake any context gated behind it.
				m.seqr.Abort()
				m.otp.Abort()
			default:
				m.finishStats(st)
				return ev.err
			}
		}
		if readerDone && done == m.spawned {
			break
		}
	}
	m.finishStats(st)
	switch {
	case readerErr == nil:
		// Clean end marker; torn contexts can only mean the client ended
		// the session with inferences still open.
		return tornErr
	case errors.Is(readerErr, io.EOF) && tornErr == nil:
		// A disconnect with every inference settled is a valid way to
		// end a session (the v3 boundary-EOF semantics).
		return nil
	default:
		return readerErr
	}
}

// finishStats folds the session's terminal counters into st. Terminal
// only: it closes any open overlap interval without restarting one.
func (m *sessionMux) finishStats(st *Stats) {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	if m.inFlight >= 2 {
		m.overlap += time.Since(m.overlapSince)
	}
	st.MaxInFlight = int64(m.maxInFlight)
	st.OverlapTime = m.overlap
	st.GateTime = m.gateTime
	st.ANDGates = m.andGates
	st.FreeGates = m.freeGates
}

func (m *sessionMux) emit(ev muxEvent) {
	select {
	case m.events <- ev:
	case <-m.stop:
	}
}

// readLoop drains the connection, validating inference tags against the
// window and routing frames to their contexts (tagged per-inference
// frames) or to the shared OT inbox (the untagged, order-serialized OT
// responses). It exits on end-of-session, disconnect, or a protocol
// violation, then closes every routing channel so blocked contexts fail
// fast instead of hanging.
func (m *sessionMux) readLoop() {
	var err error
	// Contain reader panics: the reader owns the routing channels, and an
	// escaped panic would kill the process before the deferred closes run,
	// wedging every context blocked on a routed receive.
	defer func() {
		if v := recover(); v != nil {
			if err == nil {
				err = obs.Panicked("core: session reader", v)
			}
		}
		// Unblock everything still waiting on routed frames. Only the
		// reader sends on these channels, so closing here is safe.
		close(m.mc.otCh)
		for _, c := range m.ctxs {
			close(c.inbox)
		}
		m.emit(muxEvent{readerDone: true, err: err})
	}()
	end := false
	for !end && err == nil {
		var typ transport.MsgType
		var payload []byte
		typ, payload, err = m.conn.ReadFrame()
		if err != nil {
			break
		}
		switch typ {
		case transport.MsgEndSession:
			end = true
		case transport.MsgBatchBegin:
			id, n := binary.Uvarint(payload)
			if n <= 0 {
				err = fmt.Errorf("core: malformed batch-begin payload (%d bytes)", len(payload))
				break
			}
			bsz, n2 := binary.Uvarint(payload[n:])
			if n2 <= 0 || n+n2 != len(payload) || bsz < 1 {
				err = fmt.Errorf("core: malformed batch-begin payload (%d bytes)", len(payload))
				break
			}
			if max := uint64(m.cfg.maxBatch()); bsz > max {
				err = fmt.Errorf("core: batch of %d samples exceeds the announced maximum %d", bsz, max)
				break
			}
			err = m.beginCtx(id, int(bsz))
		case transport.MsgBatchConst, transport.MsgBatchInputs, transport.MsgBatchTables:
			var id uint64
			var content []byte
			id, content, err = transport.SplitTag(payload)
			if err != nil {
				break
			}
			if err = m.win.Check(id); err != nil {
				break
			}
			c := m.ctxs[id]
			if c == nil {
				err = fmt.Errorf("core: no context for in-window inference %d", id)
				break
			}
			f := frame{logicalType(typ), content}
			select {
			case c.inbox <- f: // common case: room in the inbox, no timer
			default:
				// A full inbox is normal backpressure (the evaluator
				// paces the garbler, preserving bounded memory), so this
				// send blocks — but with a generous backstop: a context
				// that cannot consume for this long is wedged by a
				// protocol violation (e.g. a client flooding frames a
				// context cannot legally receive yet), and without the
				// backstop the reader would hang with no read pending
				// for the idle timeout to reap.
				stall := time.NewTimer(routeStallTimeout)
				select {
				case c.inbox <- f:
				case <-c.dead:
					// The context died; its error reaches the main loop.
					// Drop the frame and keep draining so the reader
					// never wedges behind a dead context's full inbox.
				case <-stall.C:
					err = fmt.Errorf("core: frame routing to inference %d stalled for %v", id, routeStallTimeout)
				case <-m.stop:
					stall.Stop()
					return
				}
				stall.Stop()
			}
		case transport.MsgOTExtY, transport.MsgOTDerandM:
			// Every OT response answers an issued request, and at most
			// depth inferences' flights are issued at once; a frame that
			// doesn't fit the (deliberately slack) buffer sized for that
			// was never requested.
			select {
			case m.mc.otCh <- frame{typ, payload}:
			default:
				err = fmt.Errorf("core: unsolicited %v frame", typ)
			}
		default:
			err = fmt.Errorf("core: unexpected %v frame on a session", typ)
		}
	}
}

// beginCtx admits a new inference sub-stream of batch samples and spawns
// its context.
func (m *sessionMux) beginCtx(id uint64, batch int) error {
	if err := m.win.Begin(id); err != nil {
		return err
	}
	m.beginInFlight()
	c := &evalCtx{id: id, batch: batch, start: time.Now(), inbox: make(chan frame, 4), dead: make(chan struct{})}
	if d := m.cfg.Deadlines.Inference; d > 0 && m.wd != nil {
		c.deadline = m.wd.after("inference", d)
	}
	m.pruneCtxs()
	m.ctxs[id] = c
	m.spawned++
	go m.runCtx(c)
	return nil
}

// logicalType maps a tagged sub-stream frame type to the logical
// protocol type the engines were written against.
func logicalType(t transport.MsgType) transport.MsgType {
	switch t {
	case transport.MsgBatchConst:
		return transport.MsgConstLabels
	case transport.MsgBatchInputs:
		return transport.MsgInputLabels
	case transport.MsgBatchTables:
		return transport.MsgTables
	default:
		return t
	}
}

// pruneCtxs drops routing entries for contexts that have exited; at most
// window-depth contexts are live, so the map stays bounded over a
// session of any length.
func (m *sessionMux) pruneCtxs() {
	for id, c := range m.ctxs {
		select {
		case <-c.dead:
			delete(m.ctxs, id)
		default:
		}
	}
}

func (m *sessionMux) beginInFlight() {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	m.inFlight++
	if m.inFlight > m.maxInFlight {
		m.maxInFlight = m.inFlight
	}
	if m.inFlight == 2 {
		m.overlapSince = time.Now()
	}
}

func (m *sessionMux) endInFlight() {
	m.statMu.Lock()
	defer m.statMu.Unlock()
	if m.inFlight == 2 {
		m.overlap += time.Since(m.overlapSince)
	}
	m.inFlight--
}

// getBuf takes a recycled table-pending buffer (the evaluation engine's
// level-assembly scratch) or starts a fresh one; up to window-depth
// buffers circulate, so a long session reallocates none after warm-up
// instead of growing a new chunk-sized buffer per inference.
func (m *sessionMux) getBuf() []byte {
	select {
	case b := <-m.bufs:
		return b
	default:
		return nil
	}
}

func (m *sessionMux) putBuf(b []byte) {
	// Only single-inference-scale scratch is worth keeping: a large
	// batch grows its pending buffer B× past the chunk size, and
	// recycling that would pin batch-sized memory for the session's
	// lifetime just to hand it to every later single inference.
	if b == nil || cap(b) > 4*m.cfg.chunkBytes() {
		return
	}
	select {
	case m.bufs <- b[:0]:
	default:
	}
}

// runCtx executes one inference's evaluation to completion and reports
// the outcome to the session's main loop.
func (m *sessionMux) runCtx(c *evalCtx) {
	err := func() (err error) {
		// Contain evaluation panics to this inference: the error tears
		// down this session through the normal event path while every
		// other session in the process keeps serving.
		defer func() {
			if v := recover(); v != nil {
				err = obs.Panicked(fmt.Sprintf("core: inference %d", c.id), v)
			}
		}()
		return m.serveInference(c)
	}()
	if c.deadline != nil {
		c.deadline.Stop()
	}
	m.endInFlight()
	if err == nil {
		obs.ObserveInference(time.Since(c.start))
		obs.AddInferences(int64(c.batch))
		// Only fused sub-streams count as batches: on the wire a single
		// inference and a batch of one are the same thing.
		if c.batch > 1 {
			obs.IncBatches()
		}
	}
	close(c.dead)
	m.emit(muxEvent{err: err, inferences: int64(c.batch)})
}

// evalPanicHook, when set by a test, runs at the top of every
// serveInference call — the seam the panic-containment pin uses to
// detonate inside one session's evaluation goroutine.
var evalPanicHook func(id uint64, batch int)

// serveInference is the per-context body: it runs the evaluation engine
// over the context's routed frames for the sub-stream's c.batch samples.
func (m *sessionMux) serveInference(c *evalCtx) error {
	if evalPanicHook != nil {
		evalPanicHook(c.id, c.batch)
	}
	view := &ctxConn{m: m, c: c}
	e, err := recvBatchEvaluator(view, c.batch)
	if err != nil {
		return err
	}
	en := &batchEvalEngine{
		sched:     m.sched,
		e:         e,
		pool:      m.pool,
		conn:      view,
		ots:       m.otp,
		cfg:       m.cfg,
		b:         c.batch,
		inputBits: m.weightBits,
		seq:       m.seqr,
		seqTurn:   int64(c.id),
		progress:  &m.conn.Progress,
		pending:   m.getBuf(),
	}
	err = en.run()
	m.putBuf(en.pending)
	if err != nil {
		return err
	}
	// Fold the crypto-core counters: gate-instance counts derive from the
	// schedule (every context walks it once per sample), kernel time from
	// the engine's measurement. The registry observations reuse the same
	// engine clocks that back Stats, so the two surfaces agree.
	ands := m.sched.ANDs * int64(c.batch)
	frees := (int64(len(m.sched.Gates)) - m.sched.ANDs) * int64(c.batch)
	m.statMu.Lock()
	m.gateTime += en.gateTime
	m.andGates += ands
	m.freeGates += frees
	m.statMu.Unlock()
	obs.ObservePhase(obs.PhaseEval, en.gateTime)
	obs.ObservePhase(obs.PhaseTableRead, en.readTime)
	obs.AddGates(ands, frees, en.gateTime)
	payload := make([]byte, 0, len(en.outLabels)*gc.LabelSize)
	for _, l := range en.outLabels {
		payload = append(payload, l[:]...)
	}
	// Retire the window slot BEFORE the output labels can reach the
	// client: its next begin may arrive the instant the flush lands (and
	// another context's send can flush our buffered outputs even
	// earlier), so closing after the send races the reader's
	// window-admission check and could reject a conforming client.
	// Closing first is safe — the client sends nothing further for this
	// inference, and a begin can only follow the outputs it hasn't
	// received yet.
	if err := m.win.Close(c.id); err != nil {
		return err
	}
	if err := view.Send(transport.MsgOutputLabels, payload); err != nil {
		return err
	}
	return view.Flush()
}
