// Package core orchestrates DeepSecure's end-to-end secure inference
// protocol (paper Fig. 2 and Fig. 3): the client (data owner) garbles the
// publicly-known DL netlist and the cloud server (model owner) evaluates
// it, with the client's data bits entering as garbler inputs, the model
// weights entering through IKNP oblivious transfer, and only the client
// learning the inference label.
//
// Sessions are multi-inference: the parties negotiate once (hello,
// architecture exchange, OT-extension base phase) and compile the public
// netlist once into a replayable tape (netgen.Compile); each further
// inference on the session only pays for fresh labels, garbling, and the
// streamed tables. The wire protocol opens each inference with a
// MsgBatchBegin sub-stream (a single inference is a batch of one) and
// ends the session with MsgEndSession. One-shot Serve/Infer remain as
// single-inference sessions.
//
// The package also implements the secure-outsourcing deployment (§3.3,
// Fig. 4) where a resource-constrained client XOR-shares its input between
// a proxy (who garbles) and the main server (who evaluates), and neither
// learns the input or — in this implementation — the result. It runs
// the same compiled-program engines as a session, at one sample.
package core

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// protocolHello identifies the session protocol. Since version 5 a
// MsgBatchBegin sub-stream fuses B independent samples into one schedule
// walk — one tagged stream of interleaved per-level tables, and one OT
// derandomization exchange per input step covering all B samples —
// occupying a single slot of the pipeline window, and the server's
// MsgPipeline announcement carries the window depth and the batch-size
// cap. OT frames stay untagged: the pool's strict FIFO order already
// serializes them into the inference-id order both parties derive
// independently.
//
// Version 6 adds the admission path to version 5: a server under load
// may answer MsgHello with MsgBusy (uvarint retry-after milliseconds)
// instead of MsgArch and close the connection; clients surface it as a
// retryable *BusyError. Admitted sessions are wire-identical to v5
// modulo the hello string.
//
// Version 7 changes no frame: it marks a new circuit. The fixed-point
// multiplier moved from a sign-extended schoolbook array to a
// Baugh–Wooley/Dadda column compressor, so a v6 peer would build a
// different netlist and fail mid-inference with an authentication error
// or a wrong label. Bumping the hello turns that into an "unknown
// protocol" refusal at the handshake.
//
// Version 8 makes every inference a MsgBatchBegin sub-stream: a single
// inference is a batch of one (Infer(x) and InferBatch([x]) put the same
// bytes on the wire), and v4's separate single-inference frames are
// gone, with the long-unused next-inference frame. Dropping them
// renumbered the frame codes, so a v7 peer is refused at hello.
const protocolHello = "deepsecure/8"

// BusyError is returned by NewSession when the server sheds the session
// at admission (protocol v6 MsgBusy): the server is saturated and asks
// the client to come back after RetryAfter. The connection is closed by
// the server; a retry must dial fresh. Detect it with errors.As and
// back off at least RetryAfter before retrying.
type BusyError struct {
	// RetryAfter is the server's backoff hint.
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("deepsecure: server busy, retry after %v", e.RetryAfter)
}

// Stats summarizes one secure inference — or, for session-level calls, a
// whole session of them.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	Duration      time.Duration
	ANDGates      int64
	FreeGates     int64
	Inferences    int64

	// Offline/online OT split (Beaver-style precomputation): offline
	// covers the extension base phase and random-OT pool fills — crypto
	// paid at session setup and in refill gaps — while online is the OT
	// work left on the inference critical path (per-batch
	// derandomization, or full IKNP when pooling is off).
	OTOfflineTime time.Duration
	OTOnlineTime  time.Duration
	OTsPooled     int64 // random OTs bulk-generated into the pool
	OTsConsumed   int64 // pooled OTs spent by derandomization
	OTsDirect     int64 // OTs served by direct (unpooled) IKNP
	OTRefills     int64 // pool fill exchanges, the initial fill included
	OTBatches     int64 // online OT exchanges (one per input batch)

	// Cross-inference pipelining (server-side session measurement): the
	// peak number of concurrently in-flight inferences and the wall time
	// during which at least two overlapped. MaxInFlight 1 on a pipelined
	// session means the client never ran ahead (or depth is 1).
	MaxInFlight int64
	OverlapTime time.Duration

	// GateTime is the wall time spent inside the per-level garble/evaluate
	// kernel calls — the hash-core cost alone, transport waits and OT
	// excluded. With pipelining, concurrent inferences' kernel intervals
	// may overlap, so GateTime can exceed the session's wall time.
	GateTime time.Duration

	// Garble-ahead execution banks (client-side): inferences served from
	// a pre-garbled banked execution vs. ones that fell back to live
	// garbling (bank disabled, drained, or its spill unreadable), and
	// the offline wall time this client spent garbling executions into
	// the bank since the session opened. A bank hit pays no online
	// garbling, so its GateTime contribution is zero. The bank is shared
	// per program across the client's sessions, so concurrent sessions'
	// refill time overlaps in BankRefillTime the way pipelined traffic
	// overlaps in byte counts.
	BankHits       int64
	BankMisses     int64
	BankRefillTime time.Duration
}

// GatesPerSec returns the crypto-core throughput: gate-instances (AND +
// free) processed per second of measured kernel time, or 0 when no
// kernel time was recorded.
func (st *Stats) GatesPerSec() float64 {
	if st.GateTime <= 0 {
		return 0
	}
	return float64(st.ANDGates+st.FreeGates) / st.GateTime.Seconds()
}

// addOT folds a pool-stats delta into the Stats.
func (st *Stats) addOT(d precomp.Stats) {
	st.OTOfflineTime += d.OfflineTime
	st.OTOnlineTime += d.OnlineTime
	st.OTsPooled += d.Generated
	st.OTsConsumed += d.Consumed
	st.OTsDirect += d.Direct
	st.OTRefills += d.Refills
	st.OTBatches += d.Batches
}

// otDelta subtracts two pool-stat snapshots.
func otDelta(after, before precomp.Stats) precomp.Stats {
	return precomp.Stats{
		Generated:   after.Generated - before.Generated,
		Consumed:    after.Consumed - before.Consumed,
		Direct:      after.Direct - before.Direct,
		Refills:     after.Refills - before.Refills,
		Batches:     after.Batches - before.Batches,
		OfflineTime: after.OfflineTime - before.OfflineTime,
		OnlineTime:  after.OnlineTime - before.OnlineTime,
	}
}

// Server hosts the private model and evaluates garbled circuits for
// clients. A Server may serve many sessions concurrently: the compiled
// netlist program is built once (lazily, or eagerly via Precompile) and
// shared read-only across all of them. Net and Fmt must not change after
// the first session.
type Server struct {
	Net *nn.Network
	Fmt fixed.Format
	// Rng sources protocol randomness (crypto/rand when nil). When
	// serving sessions from multiple goroutines, Rng must be nil or
	// safe for concurrent use; deterministic readers like *math/rand.Rand
	// are only for single-session tests.
	Rng io.Reader
	// Engine tunes the level-scheduled evaluation engine (worker count,
	// table chunking). The zero value derives workers from GOMAXPROCS.
	Engine EngineConfig
	// OTPool sizes the offline random-OT pool each session precomputes at
	// setup and refills in idle gaps (the server owns the policy; clients
	// follow whatever it announces). The zero value disables pooling and
	// every input batch runs IKNP online.
	OTPool precomp.PoolConfig

	compileOnce sync.Once
	prog        *netgen.Program
	compileErr  error
}

func rngOrDefault(r io.Reader) io.Reader {
	if r == nil {
		return rand.Reader
	}
	return r
}

// Precompile builds the server's netlist program now instead of on the
// first session. Safe to call concurrently; only the first call compiles.
func (s *Server) Precompile() error {
	_, err := s.Program()
	return err
}

// Program returns the server's compiled netlist tape, compiling it on
// first use. The result is shared by every session.
func (s *Server) Program() (*netgen.Program, error) {
	s.compileOnce.Do(func() {
		s.prog, s.compileErr = netgen.Compile(s.Net, s.Fmt, netgen.Options{})
	})
	return s.prog, s.compileErr
}

// Serve answers one single-inference session on conn (Fig. 3 server
// side): the protocol reveals nothing about the weights to the client
// beyond the public architecture/sparsity map, and nothing about the data
// or result to the server.
func (s *Server) Serve(conn *transport.Conn) error {
	_, err := s.ServeSession(conn)
	return err
}

// ServeSession answers inference requests on conn until the client ends
// the session (or disconnects at an inference boundary, which is treated
// as an implicit close). The handshake, OT-extension base phase, and
// netlist compilation happen once; each inference replays the compiled
// tape with fresh evaluation state. Inferences arrive as tagged
// sub-streams and up to EngineConfig.Pipeline of them are evaluated
// concurrently, overlapping one inference's evaluation tail and output
// round-trip with the next one's garbled stream. Returns per-session
// statistics. On a torn-down session the demux reader goroutine may
// survive until the caller closes the underlying connection.
func (s *Server) ServeSession(conn *transport.Conn) (*Stats, error) {
	start := time.Now()
	sent0, recv0 := conn.BytesSent.Load(), conn.BytesReceived.Load()
	st := &Stats{}
	finish := func() *Stats {
		st.BytesSent = conn.BytesSent.Load() - sent0
		st.BytesReceived = conn.BytesReceived.Load() - recv0
		st.Duration = time.Since(start)
		return st
	}
	// Phase watchdog: serial setup phases (handshake, OT setup) are
	// bracketed by arm/disarm here; the per-inference deadline is handed
	// to the mux. Enforcement breaks the connection, and wd.wrap rewrites
	// the resulting I/O error into the DeadlineError that explains it.
	wd := newWatchdog(conn.Break)
	defer wd.disarm()
	fail := func(err error) (*Stats, error) { return finish(), wd.wrap(err) }

	rng := rngOrDefault(s.Rng)
	wd.arm("handshake", s.Engine.Deadlines.Handshake)
	hello, err := conn.Recv(transport.MsgHello)
	if err != nil {
		return fail(err)
	}
	if string(hello) != protocolHello {
		return finish(), fmt.Errorf("core: unknown protocol %q", hello)
	}
	spec, err := s.Net.Spec(s.Fmt).Marshal()
	if err != nil {
		return finish(), err
	}
	if err := conn.Send(transport.MsgArch, spec); err != nil {
		return finish(), err
	}
	// In-flight window and batch-cap announcement: the server owns both
	// policies, clients clamp their own pipelining and batching to them.
	plBuf := make([]byte, 0, 2*binary.MaxVarintLen64)
	plBuf = transport.AppendTag(plBuf, uint64(s.Engine.pipeline()))
	plBuf = transport.AppendTag(plBuf, uint64(s.Engine.maxBatch()))
	if err := conn.Send(transport.MsgPipeline, plBuf); err != nil {
		return fail(err)
	}
	wd.arm("ot-setup", s.Engine.Deadlines.OTSetup)
	prog, err := s.Program()
	if err != nil {
		return finish(), err
	}
	weightBits := nn.WeightBits(s.Net, s.Fmt)

	// Everything below speaks through the mux-aware connection: a
	// passthrough during setup, and the contexts' serialized write /
	// routed OT-receive face once the session mux starts.
	mc := newMuxConn(conn)

	// OT-extension base phase: once per session, amortized over every
	// weight transfer of every inference. Base-phase and pool-fill time
	// are the protocol's offline OT cost.
	baseStart := time.Now()
	ots, err := ot.NewExtReceiver(mc, rng)
	if err != nil {
		return fail(err)
	}
	st.OTOfflineTime += time.Since(baseStart)

	// Random-OT pool: announce the server's policy and, when enabled,
	// bulk-fill at setup so per-inference batches only derandomize.
	otp := precomp.NewReceiverPool(mc, ots, rng, s.OTPool)
	otBase := otp.Stats()
	defer func() { st.addOT(otDelta(otp.Stats(), otBase)) }()
	if err := otp.Announce(); err != nil {
		return fail(err)
	}
	wd.disarm()

	m := newSessionMux(s, conn, mc, otp, prog.Schedule, weightBits)
	m.wd = wd
	err = m.run(st)
	return finish(), wd.wrap(err)
}

// Client runs secure inferences against a server. A Client caches the
// compiled netlist program per public model spec, so repeated sessions
// against the same model skip generation entirely. Safe for concurrent
// use by multiple sessions, provided Rng is nil or itself safe for
// concurrent use (deterministic readers like *math/rand.Rand are only
// for single-session tests).
type Client struct {
	// Rng sources protocol randomness (crypto/rand when nil).
	Rng io.Reader
	// Engine tunes the level-scheduled garbling engine (worker count,
	// table chunking). The zero value derives workers from GOMAXPROCS.
	Engine EngineConfig

	mu    sync.Mutex
	progs map[string]*netgen.Program
	banks map[string]*bank.Bank
}

// bankFor returns the client's garble-ahead bank for the given spec,
// creating it (empty — sessions fill it) on first use. Like the
// compiled program, one bank is shared by every session of the same
// model: banked executions are program-scoped, not session-scoped.
func (c *Client) bankFor(specData []byte, prog *netgen.Program) *bank.Bank {
	key := string(specData)
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.banks[key]; ok {
		return b
	}
	if c.banks == nil {
		c.banks = make(map[string]*bank.Bank)
	}
	b := bank.NewWithPool(prog.Schedule, rngOrDefault(c.Rng), c.Engine.newPool(), c.Engine.Bank)
	c.banks[key] = b
	return b
}

// Close releases the client's garble-ahead banks: background refills
// stop and every banked execution is zeroed (spill files removed).
// Open sessions keep working — their takes just miss and fall back to
// live garbling. A Client without banks needs no Close.
func (c *Client) Close() {
	c.mu.Lock()
	banks := c.banks
	c.banks = nil
	c.mu.Unlock()
	for _, b := range banks {
		b.Close()
	}
}

// program returns the compiled tape for the given public spec, compiling
// at most once per distinct spec.
func (c *Client) program(specData []byte, net *nn.Network, f fixed.Format) (*netgen.Program, error) {
	key := string(specData)
	c.mu.Lock()
	prog, ok := c.progs[key]
	c.mu.Unlock()
	if ok {
		return prog, nil
	}
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.progs == nil {
		c.progs = make(map[string]*netgen.Program)
	}
	// Keep whichever compile won the race; they are identical.
	if prior, ok := c.progs[key]; ok {
		prog = prior
	} else {
		c.progs[key] = prog
	}
	c.mu.Unlock()
	return prog, nil
}

// Session is an open multi-inference protocol session from the client
// side. It is not safe for concurrent use; open one session per
// goroutine (pipelining overlaps inferences on the wire, not callers).
type Session struct {
	conn  *transport.Conn
	rng   io.Reader
	f     fixed.Format
	prog  *netgen.Program
	ots   *precomp.SenderPool
	start time.Time

	// baseTime is the OT-extension base-phase duration (offline cost,
	// reported once in session Stats).
	baseTime time.Duration

	// Connection byte counters at session start, so Stats reports this
	// session's traffic even when the conn carried earlier sessions.
	sent0, recv0 int64

	inputLen   int
	inferences int64
	andGates   int64
	freeGates  int64
	gateTime   time.Duration
	closed     bool
	failed     bool // a mid-protocol error desynchronized the stream

	// Cross-inference pipelining: window is the negotiated in-flight cap
	// (min of this client's EngineConfig.Pipeline and the server's
	// MsgPipeline announcement), nextID the sequential id of the next
	// inference sub-stream, and inflight the garbled-but-unresolved
	// inferences, oldest first. maxBatch is the negotiated
	// batched-inference sample cap (a batch occupies one window slot).
	window   int
	maxBatch int
	nextID   uint64
	inflight []*PendingInference

	// The session's garbling engine state, reused across inferences: the
	// worker pool (with its per-worker hashers), the recycled table-chunk
	// ring, the label payload buffer, and the begin-frame tag scratch
	// (pre-sized so AppendTag never reallocates on the per-inference
	// path).
	cfg      EngineConfig
	pool     *gc.Pool
	freeBufs chan []byte
	chunkBuf []byte
	labelBuf []byte
	tagBuf   []byte

	// Garble-ahead execution bank (nil when EngineConfig.Bank is off):
	// shared per program across the client's sessions; bank0 snapshots
	// its refill-time counter at session start so Stats reports this
	// session's share.
	bank       *bank.Bank
	bank0      bank.Stats
	bankHits   int64
	bankMisses int64
}

// clientOTConn is the client session's OT-protocol face: a passthrough
// to the connection that additionally resolves output-label frames of
// earlier in-flight inferences arriving interleaved with the current
// inference's OT exchange (the server answers inference k's outputs
// while already serving inference k+1's input batches).
type clientOTConn struct{ s *Session }

func (v clientOTConn) Send(t transport.MsgType, payload []byte) error {
	return v.s.conn.Send(t, payload)
}

func (v clientOTConn) Flush() error { return v.s.conn.Flush() }

func (v clientOTConn) Recv(want transport.MsgType) ([]byte, error) {
	_, p, err := v.RecvAny(want)
	return p, err
}

func (v clientOTConn) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	// Stack-allocated want set for the per-batch hot path (the pools ask
	// for at most three types).
	var buf [4]transport.MsgType
	wants := append(buf[:0], want...)
	wants = append(wants, transport.MsgBatchOutputs)
	for {
		typ, p, err := v.s.conn.RecvAny(wants...)
		if err != nil {
			return 0, nil, err
		}
		if typ == transport.MsgBatchOutputs {
			if err := v.s.resolveOutput(p); err != nil {
				return 0, nil, err
			}
			continue
		}
		return typ, p, nil
	}
}

// garbleConn is the garble engine's view for one inference sub-stream:
// the engine's logical frames go out as the sub-stream's tagged
// MsgBatch* variants, OT frames pass through untagged, and receives
// route through the output-resolving OT face.
type garbleConn struct {
	s  *Session
	id uint64
}

func (v garbleConn) Send(t transport.MsgType, payload []byte) error {
	switch t {
	case transport.MsgConstLabels:
		return v.s.conn.SendTagged(transport.MsgBatchConst, v.id, payload)
	case transport.MsgInputLabels:
		return v.s.conn.SendTagged(transport.MsgBatchInputs, v.id, payload)
	case transport.MsgTables:
		return v.s.conn.SendTagged(transport.MsgBatchTables, v.id, payload)
	default:
		return v.s.conn.Send(t, payload)
	}
}

func (v garbleConn) Flush() error { return v.s.conn.Flush() }

func (v garbleConn) Recv(want transport.MsgType) ([]byte, error) {
	return clientOTConn{v.s}.Recv(want)
}

func (v garbleConn) RecvAny(want ...transport.MsgType) (transport.MsgType, []byte, error) {
	return clientOTConn{v.s}.RecvAny(want...)
}

// NewSession opens a session: protocol hello, architecture download,
// pipeline-window negotiation, netlist compilation (cached per spec),
// and the OT-extension base phase. With Engine.Deadlines.Handshake set
// (and a breaker installed on conn), the whole call is bounded by that
// deadline: a server that accepts and then stalls — or trickles the
// setup exchanges forever — surfaces as a DeadlineError instead of a
// hang, which is what makes re-dial retry policies safe to drive on top.
func (c *Client) NewSession(conn *transport.Conn) (sess *Session, err error) {
	if d := c.Engine.Deadlines.Handshake; d > 0 {
		wd := newWatchdog(conn.Break)
		wd.arm("handshake", d)
		defer func() {
			wd.disarm()
			err = wd.wrap(err)
		}()
	}
	start := time.Now()
	sent0, recv0 := conn.BytesSent.Load(), conn.BytesReceived.Load()
	rng := rngOrDefault(c.Rng)
	if err := conn.Send(transport.MsgHello, []byte(protocolHello)); err != nil {
		return nil, err
	}
	mt, specData, err := conn.RecvAny(transport.MsgArch, transport.MsgBusy)
	if err != nil {
		return nil, err
	}
	if mt == transport.MsgBusy {
		ms, n := binary.Uvarint(specData)
		if n <= 0 {
			return nil, fmt.Errorf("deepsecure: malformed busy frame")
		}
		return nil, &BusyError{RetryAfter: time.Duration(ms) * time.Millisecond}
	}
	spec, err := nn.UnmarshalSpec(specData)
	if err != nil {
		return nil, err
	}
	net, err := spec.Build()
	if err != nil {
		return nil, err
	}
	plPayload, err := conn.Recv(transport.MsgPipeline)
	if err != nil {
		return nil, err
	}
	announced, n := binary.Uvarint(plPayload)
	if n <= 0 || announced < 1 {
		return nil, fmt.Errorf("core: malformed pipeline announcement (%d bytes)", len(plPayload))
	}
	announcedBatch, n2 := binary.Uvarint(plPayload[n:])
	if n2 <= 0 || n+n2 != len(plPayload) || announcedBatch < 1 {
		return nil, fmt.Errorf("core: malformed pipeline announcement (%d bytes)", len(plPayload))
	}
	prog, err := c.program(specData, net, spec.Format)
	if err != nil {
		return nil, err
	}
	window := c.Engine.pipeline()
	if announced < uint64(window) {
		window = int(announced)
	}
	maxBatch := c.Engine.maxBatch()
	if announcedBatch < uint64(maxBatch) {
		maxBatch = int(announcedBatch)
	}
	s := &Session{
		conn:     conn,
		rng:      rng,
		f:        spec.Format,
		prog:     prog,
		start:    start,
		sent0:    sent0,
		recv0:    recv0,
		inputLen: net.In.Len(),
		window:   window,
		maxBatch: maxBatch,
		nextID:   1,
		cfg:      c.Engine,
		pool:     c.Engine.newPool(),
		freeBufs: make(chan []byte, 3),
		tagBuf:   make([]byte, 0, 2*binary.MaxVarintLen64),
	}
	baseStart := time.Now()
	ots, err := ot.NewExtSender(clientOTConn{s}, rng)
	if err != nil {
		return nil, err
	}
	s.baseTime = time.Since(baseStart)
	// Pool announcement: the server says whether this session
	// precomputes OTs; with an enabled pool the initial bulk fill happens
	// here, as part of session setup.
	otp := precomp.NewSenderPool(clientOTConn{s}, ots, rng)
	if err := otp.HandleAnnounce(); err != nil {
		return nil, err
	}
	s.ots = otp
	// Garble-ahead bank: the initial fill is this session's offline
	// cost, paid at setup like the OT pool fill above (and AFTER it, so
	// with a shared deterministic rng the draw sequence matches a
	// bank-off session's — the transcript-conformance property).
	if c.Engine.Bank.Enabled() {
		bk := c.bankFor(specData, prog)
		s.bank0 = bk.Stats() // before the fill: its cost is this session's offline time
		if err := bk.Fill(); err != nil {
			return nil, err
		}
		s.bank = bk
	}
	return s, nil
}

// InputLen returns the model's expected feature count (from the public
// architecture).
func (s *Session) InputLen() int { return s.inputLen }

// Window returns the session's negotiated in-flight inference cap.
func (s *Session) Window() int { return s.window }

// MaxBatch returns the session's negotiated batched-inference sample
// cap (min of this client's EngineConfig.MaxBatch and the server's
// announcement).
func (s *Session) MaxBatch() int { return s.maxBatch }

// PendingInference is an inference whose garbled stream is on the wire
// but whose output labels may not have returned yet. Wait blocks until
// the result is in, driving the session's receive side as needed. The
// same structure backs batched inferences (wrapped in a PendingBatch):
// outZero is wire-major with samples innermost and deltas holds each
// sample's Free-XOR offset.
type PendingInference struct {
	s       *Session
	id      uint64
	batch   int
	deltas  []gc.Label
	outZero []gc.Label
	start   time.Time
	flushed time.Time // garbled stream fully on the wire; starts the output round-trip
	sent0   int64
	recv0   int64
	ot0     precomp.Stats

	// Gate counters and kernel time captured at garble time (the garbler
	// itself, with its schedule-sized label array, is released as soon
	// as the stream is flushed). A bank hit garbles nothing online, so
	// its gateTime is zero while the gate counters still report the
	// banked execution's circuit size.
	andGates  int64
	freeGates int64
	gateTime  time.Duration
	bankHit   bool
	bankMiss  bool

	done   bool
	labels []int
	st     *Stats
}

// Wait returns the inference label (which only the client learns) and
// this inference's statistics. On a pipelined session the byte and OT
// deltas span the inference's in-flight window, so concurrent
// inferences' traffic overlaps in them; Duration likewise includes the
// overlapped wall time.
func (p *PendingInference) Wait() (int, *Stats, error) {
	if err := p.wait(); err != nil {
		return 0, nil, err
	}
	return p.labels[0], p.st, nil
}

func (p *PendingInference) wait() error {
	for !p.done {
		if p.s.failed {
			return errors.New("core: session is broken by an earlier protocol error")
		}
		if err := p.s.resolveNext(); err != nil {
			p.s.failed = true
			return err
		}
	}
	return nil
}

// Done reports whether the result is already in (Wait will not block).
func (p *PendingInference) Done() bool { return p.done }

// resolveNext reads the next output-label frame and resolves the
// in-flight inference it belongs to.
func (s *Session) resolveNext() error {
	payload, err := s.conn.Recv(transport.MsgBatchOutputs)
	if err != nil {
		return err
	}
	return s.resolveOutput(payload)
}

// resolveOutput authenticates one output-label frame against its
// in-flight inference and settles the result (§2.2.2 step iv): a
// tampered or corrupted evaluation cannot yield a silently wrong label,
// it fails here. All B sample labels resolve from the sub-stream's
// single MsgBatchOutputs frame (wire-major, samples innermost).
func (s *Session) resolveOutput(payload []byte) error {
	id, content, err := transport.SplitTag(payload)
	if err != nil {
		return err
	}
	idx := -1
	for i, q := range s.inflight {
		if q.id == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("core: output frame for unknown inference %d", id)
	}
	p := s.inflight[idx]
	if len(content) != len(p.outZero)*gc.LabelSize {
		return fmt.Errorf("core: output-label frame has %d bytes, want %d",
			len(content), len(p.outZero)*gc.LabelSize)
	}
	labels := make([]int, p.batch)
	outWires := len(p.outZero) / p.batch
	for i := 0; i < outWires; i++ {
		for sm := 0; sm < p.batch; sm++ {
			var l gc.Label
			copy(l[:], content[(i*p.batch+sm)*gc.LabelSize:])
			switch l {
			case p.outZero[i*p.batch+sm]:
				// bit 0
			case p.outZero[i*p.batch+sm].XOR(p.deltas[sm]):
				labels[sm] |= 1 << uint(i)
			default:
				return fmt.Errorf("core: output label %d of inference %d (sample %d) failed authentication", i, id, sm)
			}
		}
	}
	s.inflight = append(s.inflight[:idx], s.inflight[idx+1:]...)
	p.labels = labels
	p.st = &Stats{
		BytesSent:     s.conn.BytesSent.Load() - p.sent0,
		BytesReceived: s.conn.BytesReceived.Load() - p.recv0,
		Duration:      time.Since(p.start),
		ANDGates:      p.andGates,
		FreeGates:     p.freeGates,
		GateTime:      p.gateTime,
		Inferences:    int64(p.batch),
	}
	if p.bankHit {
		p.st.BankHits = int64(p.batch)
	}
	if p.bankMiss {
		p.st.BankMisses = int64(p.batch)
	}
	p.st.addOT(otDelta(s.ots.Stats(), p.ot0))
	p.done = true
	s.inferences += int64(p.batch)
	s.andGates += p.andGates
	s.freeGates += p.freeGates
	s.gateTime += p.gateTime
	// The registry sees the same measurements Stats was just built from:
	// the output round-trip from the flush timestamp, gates from the
	// garble-time counters.
	if !p.flushed.IsZero() {
		obs.ObservePhase(obs.PhaseOutputRoundTrip, time.Since(p.flushed))
	}
	obs.AddGates(p.andGates, p.freeGates, p.gateTime)
	return nil
}

// InferAsync garbles and streams one inference without waiting for its
// result: the cross-inference pipelining entry point. While the window
// has room it returns as soon as the garbled stream is flushed — the
// output round-trip and the server's evaluation tail overlap the next
// InferAsync's garbling. When the window is full it first settles the
// oldest in-flight result. The inference is a batch of one: on the wire
// it is identical to InferBatchAsync([][]float64{x}).
func (s *Session) InferAsync(x []float64) (*PendingInference, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	if got, want := len(x), s.inputLen; got != want {
		// Validated before any frame is sent: the session stays usable.
		return nil, fmt.Errorf("core: sample has %d features, model wants %d", got, want)
	}
	return s.infer([][]float64{x})
}

// usable reports why the session cannot start another inference, if it
// cannot.
func (s *Session) usable() error {
	if s.closed {
		return errors.New("core: session is closed")
	}
	if s.failed {
		return errors.New("core: session is broken by an earlier protocol error")
	}
	return nil
}

// PendingBatch is a batched inference whose fused garbled stream is on
// the wire but whose output labels may not have returned yet: the
// batch counterpart of PendingInference, returned by InferBatchAsync.
type PendingBatch struct {
	p *PendingInference
}

// Wait returns each sample's inference label (index-aligned with the
// xs passed to InferBatchAsync) and the batch's statistics; Inferences
// counts the samples and the gate/byte counters cover the whole fused
// pass.
func (pb *PendingBatch) Wait() ([]int, *Stats, error) {
	if err := pb.p.wait(); err != nil {
		return nil, nil, err
	}
	return pb.p.labels, pb.p.st, nil
}

// Done reports whether the results are already in (Wait will not
// block).
func (pb *PendingBatch) Done() bool { return pb.p.done }

// Size returns the batch's sample count.
func (pb *PendingBatch) Size() int { return pb.p.batch }

// InferBatchAsync garbles and streams one batched inference of
// len(xs) independent samples as a single fused pass — one schedule
// walk, one interleaved table stream, and one OT derandomization
// exchange per input step for the whole batch — without waiting for
// the results. The batch occupies one slot of the pipeline window, so
// batches and single inferences compose on one session. Validation
// errors (empty batch, batch beyond the negotiated MaxBatch, ragged
// sample widths) are reported before any frame is sent and leave the
// session usable.
func (s *Session) InferBatchAsync(xs [][]float64) (*PendingBatch, error) {
	if err := s.usable(); err != nil {
		return nil, err
	}
	b := len(xs)
	if b == 0 {
		return nil, errors.New("core: empty inference batch")
	}
	if b > s.maxBatch {
		return nil, fmt.Errorf("core: batch of %d samples exceeds the negotiated maximum %d", b, s.maxBatch)
	}
	for i, x := range xs {
		if got, want := len(x), s.inputLen; got != want {
			return nil, fmt.Errorf("core: batch sample %d has %d features, model wants %d", i, got, want)
		}
	}
	p, err := s.infer(xs)
	if err != nil {
		return nil, err
	}
	return &PendingBatch{p: p}, nil
}

// infer garbles and streams one MsgBatchBegin sub-stream of len(xs)
// validated samples.
func (s *Session) infer(xs [][]float64) (*PendingInference, error) {
	for len(s.inflight) >= s.window {
		if err := s.resolveNext(); err != nil {
			s.failed = true
			return nil, err
		}
	}
	b := len(xs)
	bits := make([][]bool, b)
	for i, x := range xs {
		bits[i] = make([]bool, 0, len(x)*s.f.Bits())
		for _, v := range x {
			bits[i] = append(bits[i], s.f.FromFloatSat(v).Bits()...)
		}
	}

	// Any error past this point leaves the wire mid-inference: mark the
	// session broken so a retry can't desynchronize the protocol.
	fail := func(err error) (*PendingInference, error) {
		s.failed = true
		return nil, err
	}
	id := s.nextID
	s.nextID++
	p := &PendingInference{
		s:     s,
		id:    id,
		batch: b,
		start: time.Now(),
		sent0: s.conn.BytesSent.Load(),
		recv0: s.conn.BytesReceived.Load(),
		ot0:   s.ots.Stats(),
	}
	conn := garbleConn{s, id}
	s.tagBuf = transport.AppendTag(transport.AppendTag(s.tagBuf[:0], id), uint64(b))
	if err := s.conn.Send(transport.MsgBatchBegin, s.tagBuf); err != nil {
		return fail(err)
	}
	// Garble-ahead fast path: the sub-stream consumes b banked
	// executions (all-or-nothing), each holding one sample's delta,
	// labels, and full table stream — the online work is label selection
	// and stream writes, byte-identical at b=1 to what live garbling
	// would produce from the same rng state. A miss (bank off, drained,
	// or its spilled tables unreadable — the take error degrades to a
	// miss because the live path below is always correct) falls through
	// to live garbling.
	if s.bank != nil {
		exs, _ := s.bank.TakeN(b)
		if exs != nil {
			return s.inferBatchBanked(p, conn, bits, exs)
		}
		p.bankMiss = true
		s.bankMisses += int64(b)
	}
	// Fresh garbling state per inference and per sample: every sample has
	// its own Free-XOR delta and its own wire labels, so the samples of a
	// batch are as unlinkable as separate inferences.
	bg, constPayload, err := sendConstLabels(conn, s.rng, b, s.labelBuf[:0])
	if err != nil {
		return fail(err)
	}
	en := &batchGarbleEngine{
		sched:     s.prog.Schedule,
		g:         bg,
		pool:      s.pool,
		conn:      conn,
		ots:       s.ots,
		cfg:       s.cfg,
		b:         b,
		inputBits: bits,
		labelBuf:  constPayload[:0],
		// outZero is NOT recycled across inferences here: in-flight
		// inferences hold theirs until their outputs authenticate.
		cur:  s.chunkBuf,
		free: s.freeBufs,
	}
	if err := en.run(); err != nil {
		return fail(err)
	}
	if err := s.conn.Flush(); err != nil {
		return fail(err)
	}
	p.flushed = time.Now()
	obs.ObservePhase(obs.PhaseGarbleLive, en.gateTime)
	obs.ObservePhase(obs.PhaseTableWrite, en.writeTime)
	// Hand the grown buffers back for the next inference on this session.
	s.chunkBuf = en.cur
	s.labelBuf = en.labelBuf
	// Keep only what output authentication needs: the garbler (with its
	// schedule-sized label array) is released here, not when the outputs
	// return.
	p.deltas = bg.R
	p.outZero = en.outZero
	p.andGates = bg.ANDGates
	p.freeGates = bg.FreeGates
	p.gateTime = en.gateTime
	s.inflight = append(s.inflight, p)
	return p, nil
}

// inferBatchBanked streams b banked executions as the sub-stream p (its
// begin frame is already out). The executions are off the bank for
// good: on a mid-stream error they are released and discarded with the
// broken session — single-use, never re-issued.
func (s *Session) inferBatchBanked(p *PendingInference, conn garbleConn, bits [][]bool, exs []*bank.Execution) (*PendingInference, error) {
	b := len(exs)
	release := func() {
		for _, ex := range exs {
			ex.Release()
		}
	}
	fail := func(err error) (*PendingInference, error) {
		release()
		s.failed = true
		return nil, err
	}
	// Const payload in the sub-stream's wire layout: the b false-labels,
	// then the b true-labels.
	constPayload := s.labelBuf[:0]
	for _, ex := range exs {
		constPayload = append(constPayload, ex.ConstFalse[:]...)
	}
	for _, ex := range exs {
		constPayload = append(constPayload, ex.ConstTrue[:]...)
	}
	if err := conn.Send(transport.MsgConstLabels, constPayload); err != nil {
		return fail(err)
	}
	en := &bankBatchEngine{
		sched:     s.prog.Schedule,
		exs:       exs,
		conn:      conn,
		ots:       s.ots,
		cfg:       s.cfg,
		b:         b,
		inputBits: bits,
		labelBuf:  constPayload[:0],
		cur:       s.chunkBuf,
		free:      s.freeBufs,
	}
	// The bank hit's online cost IS the streaming: label selection plus
	// stream writes (and, for b > 1, the table interleave copy), garbling
	// excluded — the garble_bank span covers the run and its flush.
	sp := obs.Span(obs.PhaseGarbleBank)
	if err := en.run(); err != nil {
		return fail(err)
	}
	if err := s.conn.Flush(); err != nil {
		return fail(err)
	}
	sp.End()
	p.flushed = time.Now()
	s.chunkBuf = en.cur
	s.labelBuf = en.labelBuf
	// Output authentication keeps value copies of the deltas and the
	// zero-labels; the streamed material is zeroed now.
	p.deltas = make([]gc.Label, b)
	outWires := len(exs[0].OutZero)
	p.outZero = make([]gc.Label, outWires*b)
	for sm, ex := range exs {
		p.deltas[sm] = ex.R
		for i := 0; i < outWires; i++ {
			p.outZero[i*b+sm] = ex.OutZero[i]
		}
		p.andGates += ex.ANDGates
		p.freeGates += ex.FreeGates
	}
	p.bankHit = true
	release()
	s.bankHits += int64(b)
	s.inflight = append(s.inflight, p)
	return p, nil
}

// InferBatch classifies a batch of samples in one fused pass and
// returns their labels (index-aligned with xs) plus the batch's
// statistics. It is synchronous — the batch's results (and any older
// in-flight inferences') are settled before it returns.
func (s *Session) InferBatch(xs [][]float64) ([]int, *Stats, error) {
	pb, err := s.InferBatchAsync(xs)
	if err != nil {
		return nil, nil, err
	}
	return pb.Wait()
}

// Infer classifies one sample on the open session and returns the
// inference label, which only the client learns, plus statistics for this
// inference alone (byte counts are deltas, not session totals). Infer is
// synchronous — it settles this inference's result (and any older
// in-flight ones) before returning, so a pure-Infer session is serial on
// the wire regardless of the window.
func (s *Session) Infer(x []float64) (int, *Stats, error) {
	p, err := s.InferAsync(x)
	if err != nil {
		return 0, nil, err
	}
	return p.Wait()
}

// Close ends the session cleanly, telling the server to stop waiting for
// further inferences. In-flight inferences are settled first, so their
// results remain retrievable through Wait after Close. The underlying
// connection stays open (and owned by the caller). Close is idempotent.
// On a session broken mid-protocol the end marker is withheld (the
// stream is desynchronized; only tearing down the connection releases
// the peer).
func (s *Session) Close() error {
	if s.closed {
		return nil
	}
	var drainErr error
	for !s.failed && len(s.inflight) > 0 {
		if err := s.resolveNext(); err != nil {
			s.failed = true
			drainErr = err
		}
	}
	s.closed = true
	if s.failed {
		return drainErr
	}
	if err := s.conn.Send(transport.MsgEndSession, nil); err != nil {
		return err
	}
	return s.conn.Flush()
}

// Stats returns cumulative statistics for the whole session so far,
// including the handshake and OT base phase.
func (s *Session) Stats() *Stats {
	st := &Stats{
		BytesSent:     s.conn.BytesSent.Load() - s.sent0,
		BytesReceived: s.conn.BytesReceived.Load() - s.recv0,
		Duration:      time.Since(s.start),
		ANDGates:      s.andGates,
		FreeGates:     s.freeGates,
		GateTime:      s.gateTime,
		Inferences:    s.inferences,
		OTOfflineTime: s.baseTime,
	}
	st.addOT(s.ots.Stats())
	if s.bank != nil {
		st.BankHits = s.bankHits
		st.BankMisses = s.bankMisses
		st.BankRefillTime = s.bank.Stats().RefillTime - s.bank0.RefillTime
	}
	return st
}

// BankStats returns the session's garble-ahead bank counters (zero
// value when banking is off): the bank itself is shared per program
// across the client's sessions, so Banked/Available reflect the shared
// pool while the session's own hit/miss split lives in Stats.
func (s *Session) BankStats() bank.Stats {
	if s.bank == nil {
		return bank.Stats{}
	}
	return s.bank.Stats()
}

// FillBank synchronously refills the session's garble-ahead bank to its
// configured depth — an explicit offline phase for callers that know a
// request burst is coming and want every inference in it to hit the
// bank, rather than waiting for the low-water refill to catch up.
// Without a bank it is a no-op.
func (s *Session) FillBank() error {
	if s.bank == nil {
		return nil
	}
	return s.bank.Fill()
}

// OTPooled reports whether the server enabled OT precomputation for this
// session.
func (s *Session) OTPooled() bool { return s.ots.Pooled() }

// Infer classifies one sample over a fresh single-inference session
// (Fig. 3 client side) and returns the inference label. The reported
// stats cover the whole session including handshake and OT base phase.
func (c *Client) Infer(conn *transport.Conn, x []float64) (int, *Stats, error) {
	labels, st, err := c.InferMany(conn, [][]float64{x})
	if err != nil {
		return 0, nil, err
	}
	return labels[0], st, nil
}

// InferMany opens one session, classifies every sample on it, and closes
// the session: N inferences for one handshake, one OT base phase, and
// one netlist compilation — and, with a pipeline window deeper than 1,
// consecutive inferences overlapped on the wire (inference k+1 garbles
// while inference k's output round-trip and evaluation tail are still
// pending). Results stream in as they complete; the returned stats are
// session totals.
func (c *Client) InferMany(conn *transport.Conn, xs [][]float64) ([]int, *Stats, error) {
	sess, err := c.NewSession(conn)
	if err != nil {
		return nil, nil, err
	}
	ps := make([]*PendingInference, 0, len(xs))
	for _, x := range xs {
		p, err := sess.InferAsync(x)
		if err != nil {
			// Best-effort close so a server blocked at the inference
			// boundary (e.g. after a local validation error) is released
			// instead of waiting for the connection to die.
			sess.Close() //nolint:errcheck — the InferAsync error is the one to report
			return nil, nil, err
		}
		ps = append(ps, p)
	}
	labels := make([]int, 0, len(xs))
	for _, p := range ps {
		label, _, err := p.Wait()
		if err != nil {
			sess.Close() //nolint:errcheck — the Wait error is the one to report
			return nil, nil, err
		}
		labels = append(labels, label)
	}
	if err := sess.Close(); err != nil {
		return nil, nil, err
	}
	return labels, sess.Stats(), nil
}

// InferBatch opens one session, classifies every sample in a single
// fused batched inference (protocol v5), and closes the session: one
// handshake, one OT base phase, one schedule walk, one interleaved
// table stream, and one OT derandomization exchange per input step for
// the whole batch. len(xs) must fit the negotiated batch cap (the
// min of this client's EngineConfig.MaxBatch and the server's
// announcement); for larger workloads, split into batches on an open
// Session (InferBatch/InferBatchAsync compose with the pipeline
// window) or fall back to InferMany. The returned stats are session
// totals.
func (c *Client) InferBatch(conn *transport.Conn, xs [][]float64) ([]int, *Stats, error) {
	sess, err := c.NewSession(conn)
	if err != nil {
		return nil, nil, err
	}
	labels, _, err := sess.InferBatch(xs)
	if err != nil {
		// Best-effort close so a server blocked at the inference
		// boundary (e.g. after a local validation error) is released.
		sess.Close() //nolint:errcheck — the InferBatch error is the one to report
		return nil, nil, err
	}
	if err := sess.Close(); err != nil {
		return nil, nil, err
	}
	return labels, sess.Stats(), nil
}
