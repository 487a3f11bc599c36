// Package precomp is the offline OT-precomputation subsystem: a random-OT
// pool that moves the IKNP extension's cryptography off the inference
// critical path (Beaver-style OT derandomization).
//
// Offline, the two parties bulk-generate random OTs over the existing
// extension — the sender banks n uniformly random label pairs (r0, r1),
// the receiver banks n random choice bits c and the corresponding r_c.
// Online, transferring a real pair (x0, x1) under a real choice bit b
// costs one message each way and XORs only:
//
//	receiver → sender:  d = b ⊕ c                (MsgOTDerandC, m/8 bytes)
//	sender → receiver:  y0 = x0 ⊕ r_d, y1 = x1 ⊕ r_{1⊕d}   (MsgOTDerandM)
//	receiver:           x_b = y_b ⊕ r_c
//
// The receiver side (the evaluator, whose choice bits are the model's
// weight bits) owns the pool policy: it announces the pool after the
// OT-extension base phase with a MsgOTRefill frame (count 0 disables
// pooling), performs the initial bulk fill there, and announces further
// refills in-band before an online batch whenever the pool runs low. The
// sender side is fully adaptive — it dispatches on the frame it sees
// (direct-IKNP U, a refill announcement, or derandomization corrections),
// so only one party needs configuring and the two ends can never disagree
// about the mode.
//
// Every pooled OT is consumed at most once: the pools are strict FIFOs
// over an absolute sequence number, entries are zeroed as they are taken,
// and exhaustion blocks on a refill exchange instead of ever reusing an
// entry. With Background enabled, the receiver precomputes the next
// refill's PRG expansion and matrix transpose on a helper goroutine while
// the evaluator is compute-bound, so a refill exchange at the next batch
// boundary only pays the wire round trip and the hash-decrypt step.
package precomp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// PoolConfig sizes the receiver-driven random-OT pool.
type PoolConfig struct {
	// Capacity is the pool size targeted by the initial fill and by each
	// refill. 0 disables precomputation entirely (every online batch runs
	// direct IKNP, the pre-pool protocol).
	Capacity int
	// RefillLowWater triggers a refill once the unconsumed pool drops
	// below it. 0 defaults to Capacity/4. A refill also triggers
	// unconditionally when a batch needs more OTs than remain.
	RefillLowWater int
	// Background precomputes each refill's receiver-side crypto (PRG
	// expansion + transpose) on a helper goroutine while the evaluator is
	// busy, so the exchange at the next batch boundary is wire-bound.
	Background bool
}

// Enabled reports whether this configuration turns pooling on.
func (c PoolConfig) Enabled() bool { return c.Capacity > 0 }

// Effective returns the configuration with defaults resolved (the
// low-water mark an enabled pool actually refills at).
func (c PoolConfig) Effective() PoolConfig {
	c.RefillLowWater = c.lowWater()
	return c
}

func (c PoolConfig) lowWater() int {
	lw := c.Capacity / 4
	if c.RefillLowWater > 0 {
		lw = c.RefillLowWater
	}
	// A low-water mark at or above capacity would demand a refill from a
	// full pool (a zero-count exchange the sender rejects): clamp it so
	// "full" always satisfies the policy and misconfigured flags degrade
	// to refill-to-capacity after every batch instead of wedging the
	// session.
	if c.Enabled() && lw >= c.Capacity {
		lw = c.Capacity - 1
	}
	return lw
}

// maxRefill bounds a single announced refill so a corrupted or hostile
// count fails fast instead of forcing an absurd allocation.
const maxRefill = 1 << 26

// Stats counts a pool's offline and online work. The durations separate
// the protocol's two phases: OfflineTime covers bulk random-OT generation
// (fills and refills, crypto that can hide in setup and idle gaps) and
// OnlineTime the per-batch work left on the inference critical path
// (derandomization, or full IKNP when the pool is disabled).
type Stats struct {
	Generated int64 // random OTs produced into the pool
	Consumed  int64 // pooled OTs spent by derandomization
	Direct    int64 // OTs served by direct IKNP (pool disabled)
	Refills   int64 // fill exchanges, the initial fill included
	Batches   int64 // online exchanges (one per input batch, either mode)

	OfflineTime time.Duration
	OnlineTime  time.Duration
}

// readCount parses a MsgOTRefill payload.
func readCount(payload []byte) (int, error) {
	n, read := binary.Uvarint(payload)
	if read <= 0 || read != len(payload) {
		return 0, fmt.Errorf("precomp: malformed refill count frame (%d bytes)", len(payload))
	}
	if n > maxRefill {
		return 0, fmt.Errorf("precomp: refill count %d exceeds limit %d", n, maxRefill)
	}
	return int(n), nil
}

func countPayload(n int) []byte {
	buf := make([]byte, binary.MaxVarintLen64)
	return buf[:binary.PutUvarint(buf, uint64(n))]
}

func randBits(rng io.Reader, n int) ([]bool, error) {
	raw := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(rng, raw); err != nil {
		return nil, fmt.Errorf("precomp: choice randomness: %w", err)
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = raw[i/8]&(1<<uint(i%8)) != 0
	}
	return bits, nil
}

// ReceiverPool is the evaluator-side pool: it banks (c, r_c) tuples, owns
// the refill policy, and drives the wire protocol (the sender reacts to
// its announcements). One pool per session; consumers must be serialized
// (a pipelined session uses a Sequencer), but Stats is safe to read
// concurrently.
type ReceiverPool struct {
	conn transport.FrameConn
	ots  *ot.ExtReceiver
	rng  io.Reader
	cfg  PoolConfig

	// FIFO of unconsumed random OTs: entry i (absolute sequence seq+i)
	// holds choice bit bits[head+i] and message msgs[head+i]. head only
	// advances; consumed entries are zeroed so any accidental reuse
	// produces garbage labels (caught by output authentication) instead
	// of a silent two-time use.
	bits []bool
	msgs []ot.Msg
	head int
	seq  int64 // absolute sequence number of the first unconsumed entry

	// pending is an in-flight background precompute for the next refill;
	// nil when none. Resolved (and its U put on the wire) before any
	// other use of the ExtReceiver, preserving stream/hash ordering.
	pending chan pendingFill

	// st is guarded by stMu: consumers are serialized (by the session,
	// or by a Sequencer on pipelined sessions), but Stats may be read
	// concurrently — e.g. a session tearing down on one inference's
	// error snapshots counters while another inference's exchange is
	// still unwinding.
	stMu sync.Mutex
	st   Stats

	// Issued-batch consumption (IssueAll/Collect): collectSeq orders
	// collection by issue ticket — the wire carries responses in request
	// order, so collects must read in that order even when inference
	// walks interleave. outstanding counts issued-but-uncollected
	// batches; refills barrier on it draining (a refill's Y frame queues
	// behind every pending response on the shared OT stream). ahead is
	// the request bytes sent at issue and not yet answered, held the
	// number of requests left for their Collect to send (see flightCap).
	// Guarded by outMu; outCond wakes the barrier. aborted mirrors the
	// sequencer's aborted flag for barrier waiters.
	collectSeq  *Sequencer
	outMu       sync.Mutex
	outCond     *sync.Cond
	outstanding int
	ahead       int
	held        int
	aborted     bool
	nextTicket  int64
}

type pendingFill struct {
	n       int
	choices []bool
	pr      *ot.PreparedReceive
	err     error
}

// NewReceiverPool wraps a session's extension receiver. rng sources the
// pool's random choice bits (and must match the session's randomness
// policy for concurrency).
func NewReceiverPool(conn transport.FrameConn, ots *ot.ExtReceiver, rng io.Reader, cfg PoolConfig) *ReceiverPool {
	p := &ReceiverPool{conn: conn, ots: ots, rng: rng, cfg: cfg, collectSeq: NewSequencer(0)}
	p.outCond = sync.NewCond(&p.outMu)
	return p
}

// Stats returns a snapshot of the pool's counters. Safe to call
// concurrently with a consumer (teardown-path snapshots).
func (p *ReceiverPool) Stats() Stats {
	p.stMu.Lock()
	defer p.stMu.Unlock()
	return p.st
}

// stAdd folds a delta into the guarded counters.
func (p *ReceiverPool) stAdd(d Stats) {
	p.stMu.Lock()
	p.st.Generated += d.Generated
	p.st.Consumed += d.Consumed
	p.st.Direct += d.Direct
	p.st.Refills += d.Refills
	p.st.Batches += d.Batches
	p.st.OfflineTime += d.OfflineTime
	p.st.OnlineTime += d.OnlineTime
	p.stMu.Unlock()
}

// Seq returns the absolute sequence number of the next pooled OT to be
// consumed. It is strictly monotone: tests use it to prove that consumed
// ranges never overlap (single-use safety).
func (p *ReceiverPool) Seq() int64 { return p.seq }

// Available returns the number of unconsumed pooled OTs.
func (p *ReceiverPool) Available() int { return len(p.bits) - p.head }

// Announce opens the pool protocol after the OT base phase: it tells the
// sender whether pooling is on (count 0 = disabled) and, when on,
// performs the initial bulk fill — the session-setup offline phase. A
// capacity beyond the protocol's refill limit fails here, locally,
// before any frame reaches the peer.
func (p *ReceiverPool) Announce() error {
	if !p.cfg.Enabled() {
		if err := p.conn.Send(transport.MsgOTRefill, countPayload(0)); err != nil {
			return err
		}
		return p.conn.Flush()
	}
	if p.cfg.Capacity > maxRefill {
		return fmt.Errorf("precomp: pool capacity %d exceeds limit %d", p.cfg.Capacity, maxRefill)
	}
	return p.refill(p.cfg.Capacity)
}

// refill runs one announced fill exchange of n random OTs: announce,
// send U, receive Y, bank the results. Offline-phase work.
func (p *ReceiverPool) refill(n int) error {
	if n <= 0 {
		// Defense in depth: a zero-count refill would desynchronize the
		// sender (which rejects it); the policy clamps should make this
		// unreachable.
		return nil
	}
	if n > maxRefill {
		return fmt.Errorf("precomp: pool fill of %d OTs exceeds limit %d (lower Capacity)", n, maxRefill)
	}
	start := time.Now()
	choices, err := randBits(p.rng, n)
	if err != nil {
		return err
	}
	pr := p.ots.Prepare(choices)
	if err := p.finishRefill(n, choices, pr); err != nil {
		return err
	}
	elapsed := time.Since(start)
	p.stAdd(Stats{OfflineTime: elapsed})
	obs.ObservePhase(obs.PhaseOTRefill, elapsed)
	return nil
}

// finishRefill performs the wire half of a fill whose receiver crypto is
// already prepared.
func (p *ReceiverPool) finishRefill(n int, choices []bool, pr *ot.PreparedReceive) error {
	if err := p.conn.Send(transport.MsgOTRefill, countPayload(n)); err != nil {
		return err
	}
	if err := p.conn.Send(transport.MsgOTExtU, pr.U); err != nil {
		return err
	}
	y, err := p.conn.Recv(transport.MsgOTExtY)
	if err != nil {
		return err
	}
	msgs, err := p.ots.Finish(pr, y)
	if err != nil {
		return err
	}
	p.compact()
	p.bits = append(p.bits, choices...)
	p.msgs = append(p.msgs, msgs...)
	p.stAdd(Stats{Generated: int64(n), Refills: 1})
	obs.AddOTPooled(int64(n))
	obs.IncOTRefills()
	obs.SetOTPoolDepth(obs.OTReceiver, p.Available())
	return nil
}

// compact drops the consumed prefix so the backing arrays don't grow with
// session lifetime.
func (p *ReceiverPool) compact() {
	if p.head == 0 {
		return
	}
	p.bits = append(p.bits[:0], p.bits[p.head:]...)
	p.msgs = append(p.msgs[:0], p.msgs[p.head:]...)
	p.head = 0
}

// resolvePending completes an in-flight background precompute, putting
// its exchange on the wire now. Must run before any other ExtReceiver use
// so stream and hash ordering match the wire.
func (p *ReceiverPool) resolvePending() error {
	if p.pending == nil {
		return nil
	}
	start := time.Now()
	f := <-p.pending // blocks until the precompute goroutine is done
	p.pending = nil
	if f.err != nil {
		return f.err
	}
	err := p.finishRefill(f.n, f.choices, f.pr)
	elapsed := time.Since(start)
	p.stAdd(Stats{OfflineTime: elapsed})
	obs.ObservePhase(obs.PhaseOTRefill, elapsed)
	return err
}

// maybeStartBackground kicks off the next refill's precompute after a
// consume left the pool below low water.
func (p *ReceiverPool) maybeStartBackground() {
	if !p.cfg.Background || p.pending != nil || p.Available() >= p.cfg.lowWater() {
		return
	}
	n := p.cfg.Capacity - p.Available()
	if n <= 0 {
		return
	}
	start := time.Now()
	choices, err := randBits(p.rng, n)
	if err != nil {
		p.stAdd(Stats{OfflineTime: time.Since(start)})
		// Surface the randomness failure at the next exchange point.
		ch := make(chan pendingFill, 1)
		ch <- pendingFill{err: err}
		p.pending = ch
		return
	}
	ch := make(chan pendingFill, 1)
	p.pending = ch
	go func() {
		// Only this goroutine touches the ExtReceiver until the session
		// goroutine blocks on the channel in resolvePending. A panic in
		// the precompute must still deliver a fill on the channel —
		// otherwise resolvePending blocks forever on a goroutine that no
		// longer exists — so it is contained into the fill's error.
		defer func() {
			if v := recover(); v != nil {
				ch <- pendingFill{err: obs.Panicked("precomp: background refill", v)}
			}
		}()
		pr := p.ots.Prepare(choices)
		ch <- pendingFill{n: n, choices: choices, pr: pr}
	}()
	p.stAdd(Stats{OfflineTime: time.Since(start)})
}

// Abort unblocks every issued-flight waiter — collects gated on the ticket
// order and issuers gated on the outstanding-drain barrier — with a
// teardown error. Call alongside the session Sequencer's Abort.
func (p *ReceiverPool) Abort() {
	p.collectSeq.Abort()
	p.outMu.Lock()
	p.aborted = true
	p.outCond.Broadcast()
	p.outMu.Unlock()
}

// flightCap bounds the OT request bytes, frame headers included, on the
// wire ahead of the garbler's walk. The garbler reads a step's request
// only when its walk reaches that step, and until then it streams
// tables; a request the evaluator has to push past what the transport
// buffers blocks the evaluator before it can read those tables, and
// both directions wedge. 4 KiB sits below the smallest send-plus-receive
// buffer pair Linux gives a TCP socket, so a flight within it never
// blocks on a transport that buffers at least 4 KiB each way.
const flightCap = 4 << 10

// PendingReceive is one issued-but-uncollected batch, finished by
// Collect when the walk reaches the step. A pooled batch holds copies of
// the consumed pool entries (the pool's own copies are zeroed); a direct
// batch holds its prepared IKNP receive. req is the request frame's
// payload while it is still unsent — Collect sends it — and ahead counts
// the bytes it added to the pool's on-the-wire-ahead total when IssueAll
// sent it.
type PendingReceive struct {
	p       *ReceiverPool
	ticket  int64
	choices []bool
	bits    []bool
	msgs    []ot.Msg
	prep    *ot.PreparedReceive
	req     []byte
	ahead   int
}

// IssueAll issues the OT requests for ALL of an inference's input-step
// batches at once and returns one PendingReceive per step to Collect in
// walk order. With an enabled pool each request is a derandomization
// correction (m/8 bytes) against consecutive pool entries, pending
// refills resolving first, upfront, for the whole inference — never
// reusing an entry; with the pool off it is a direct-IKNP receive
// prepared now (PRG expansion, a 16·m-byte U matrix, transpose). The
// requests go out back-to-back in one flight when they fit flightCap
// together with the requests already ahead of the garbler and no earlier
// request is still held back; otherwise each is sent by its own Collect,
// which keeps the wire order because Collects run in ticket order.
// Either way the caller can release its pool-order turn the moment
// IssueAll returns — the FIFO and extension state is fully advanced —
// so the next inference's requests overlap this one's evaluation
// instead of waiting for its last Collect.
//
// Callers must still be serialized against each other (the session
// Sequencer); Collects order themselves by ticket.
func (p *ReceiverPool) IssueAll(steps [][]bool) ([]*PendingReceive, error) {
	total := 0
	for _, c := range steps {
		total += len(c)
	}
	pooled := p.cfg.Enabled()
	if pooled {
		if err := p.ensure(total); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	prs := make([]*PendingReceive, len(steps))
	flight, reqs := 0, 0
	for si, choices := range steps {
		pr := &PendingReceive{p: p, choices: choices}
		prs[si] = pr
		if len(choices) == 0 {
			continue
		}
		if pooled {
			pr.req = p.takeEntries(pr)
		} else {
			// req owns the U matrix, so it dies once sent.
			pr.prep = p.ots.Prepare(choices)
			pr.req, pr.prep.U = pr.prep.U, nil
		}
		flight += transport.FrameHeader + len(pr.req)
		reqs++
	}
	p.outMu.Lock()
	for _, pr := range prs {
		pr.ticket = p.nextTicket
		p.nextTicket++
	}
	p.outstanding += len(prs)
	send := p.held == 0 && p.ahead+flight <= flightCap
	if send {
		p.ahead += flight
	} else {
		p.held += reqs
	}
	p.outMu.Unlock()
	if send {
		for _, pr := range prs {
			if pr.req == nil {
				continue
			}
			if err := p.conn.Send(p.reqType(), pr.req); err != nil {
				return nil, err
			}
			pr.ahead, pr.req = transport.FrameHeader+len(pr.req), nil
		}
		// One flush for the whole flight: the sender answers each request
		// in order, so responses stream back while the walk evaluates.
		if err := p.conn.Flush(); err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)
	obs.ObservePhase(obs.PhaseOTDerand, elapsed)
	if !pooled {
		p.stAdd(Stats{Direct: int64(total), Batches: int64(len(steps)), OnlineTime: elapsed})
		return prs, nil
	}
	p.stAdd(Stats{Consumed: int64(total), Batches: int64(len(steps)), OnlineTime: elapsed})
	obs.AddOTConsumed(int64(total))
	obs.SetOTPoolDepth(obs.OTReceiver, p.Available())
	p.maybeStartBackground()
	return prs, nil
}

// reqType and respType are the request and response frame types of an
// issued batch: derandomization corrections with the pool on, the IKNP
// U and Y matrices with it off.
func (p *ReceiverPool) reqType() transport.MsgType {
	if p.cfg.Enabled() {
		return transport.MsgOTDerandC
	}
	return transport.MsgOTExtU
}

func (p *ReceiverPool) respType() transport.MsgType {
	if p.cfg.Enabled() {
		return transport.MsgOTDerandM
	}
	return transport.MsgOTExtY
}

// ensure makes the pool cover a flight of total OTs and the low-water
// policy, refilling once, upfront: refilling mid-issue would deadlock on
// the flight's own outstanding responses. A refill (or a pending
// background fill's resolution) reads a MsgOTExtY off the shared OT
// stream — which carries the responses to every outstanding request
// first — so it barriers until earlier inferences' collects drain those
// responses. Deadlock-free: collects need only the ticket order, not the
// pool turn the caller holds.
func (p *ReceiverPool) ensure(total int) error {
	if p.pending == nil && p.Available() >= total && p.Available() >= p.cfg.lowWater() {
		return nil
	}
	p.outMu.Lock()
	for p.outstanding > 0 && !p.aborted {
		p.outCond.Wait()
	}
	aborted := p.aborted
	p.outMu.Unlock()
	if aborted {
		return ErrSequencerAborted
	}
	// A background precompute already advanced the PRG streams: its U
	// must be the next U on the wire, so it resolves before any further
	// fill.
	if err := p.resolvePending(); err != nil {
		return err
	}
	if avail := p.Available(); avail < total || avail < p.cfg.lowWater() {
		n := p.cfg.Capacity - avail
		if n < total-avail {
			n = total - avail
		}
		return p.refill(n)
	}
	return nil
}

// takeEntries consumes one pooled batch's entries and returns its
// derandomization corrections, copying the entries out for Collect and
// zeroing the pool's own copies now: the FIFO advances here, so
// single-use holds even if the Collect never runs.
func (p *ReceiverPool) takeEntries(pr *PendingReceive) []byte {
	m := len(pr.choices)
	pr.bits = make([]bool, m)
	pr.msgs = make([]ot.Msg, m)
	copy(pr.bits, p.bits[p.head:p.head+m])
	copy(pr.msgs, p.msgs[p.head:p.head+m])
	d := make([]byte, (m+7)/8)
	for j, b := range pr.choices {
		if b != pr.bits[j] {
			d[j/8] |= 1 << uint(j%8)
		}
		p.msgs[p.head+j] = ot.Msg{}
		p.bits[p.head+j] = false
	}
	p.head += m
	p.seq += int64(m)
	return d
}

// Collect finishes one issued batch and returns the chosen messages:
// it sends the request if IssueAll held it back, receives the sender's
// response, and unmasks it against the consumed pool entries or
// decrypts it as the IKNP Y matrix. Collects self-serialize into issue
// order (the wire order of the requests and responses); a failed
// exchange aborts the pool's collect state instead of releasing the
// ticket — the stream is desynchronized and no later collect can
// legitimately proceed.
func (pr *PendingReceive) Collect() ([]ot.Msg, error) {
	p := pr.p
	if err := p.collectSeq.Acquire(pr.ticket); err != nil {
		return nil, err
	}
	var out []ot.Msg
	if len(pr.choices) > 0 {
		start := time.Now()
		var err error
		if out, err = pr.exchange(); err != nil {
			p.Abort()
			return nil, err
		}
		elapsed := time.Since(start)
		p.stAdd(Stats{OnlineTime: elapsed})
		obs.ObservePhase(obs.PhaseSpecCollect, elapsed)
	}
	p.collectSeq.Release(pr.ticket)
	p.outMu.Lock()
	p.outstanding--
	p.ahead -= pr.ahead
	p.outCond.Broadcast()
	p.outMu.Unlock()
	return out, nil
}

// exchange is Collect's wire half: the held-back request (if any), the
// response (Recv flushes the request), and the decode.
func (pr *PendingReceive) exchange() ([]ot.Msg, error) {
	p := pr.p
	if pr.req != nil {
		err := p.conn.Send(p.reqType(), pr.req)
		pr.req = nil
		p.outMu.Lock()
		p.held--
		p.outMu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	y, err := p.conn.Recv(p.respType())
	if err != nil {
		return nil, err
	}
	if pr.prep != nil {
		out, err := p.ots.Finish(pr.prep, y)
		pr.prep = nil
		return out, err
	}
	m := len(pr.choices)
	if len(y) != m*2*ot.MsgLen {
		return nil, fmt.Errorf("precomp: derand payload is %d bytes, want %d", len(y), m*2*ot.MsgLen)
	}
	out := make([]ot.Msg, m)
	for j, b := range pr.choices {
		off := j * 2 * ot.MsgLen
		if b {
			off += ot.MsgLen
		}
		r := &pr.msgs[j]
		for i := 0; i < ot.MsgLen; i++ {
			out[j][i] = y[off+i] ^ r[i]
		}
		// Single-use: the pending copies die with the collect.
		*r = ot.Msg{}
		pr.bits[j] = false
	}
	pr.msgs, pr.bits = nil, nil
	return out, nil
}

// SenderPool is the garbler-side pool: it banks random label pairs and
// follows the receiver's protocol — direct IKNP, a refill, or a
// derandomized batch, whichever frame arrives. Not safe for concurrent
// use; one pool per session.
type SenderPool struct {
	conn transport.FrameConn
	ots  *ot.ExtSender
	rng  io.Reader

	pairs [][2]ot.Msg
	head  int
	seq   int64

	pooled bool // the receiver announced an enabled pool
	st     Stats
}

// NewSenderPool wraps a session's extension sender. rng sources the
// pool's random label pairs.
func NewSenderPool(conn transport.FrameConn, ots *ot.ExtSender, rng io.Reader) *SenderPool {
	return &SenderPool{conn: conn, ots: ots, rng: rng}
}

// Stats returns a snapshot of the pool's counters.
func (p *SenderPool) Stats() Stats { return p.st }

// Seq returns the absolute sequence number of the next pooled pair to be
// consumed (single-use safety instrumentation, like ReceiverPool.Seq).
func (p *SenderPool) Seq() int64 { return p.seq }

// Available returns the number of unconsumed pooled pairs.
func (p *SenderPool) Available() int { return len(p.pairs) - p.head }

// Pooled reports whether the receiver announced an enabled pool.
func (p *SenderPool) Pooled() bool { return p.pooled }

// HandleAnnounce consumes the receiver's pool announcement after the OT
// base phase and, when pooling is on, participates in the initial fill.
func (p *SenderPool) HandleAnnounce() error {
	payload, err := p.conn.Recv(transport.MsgOTRefill)
	if err != nil {
		return err
	}
	n, err := readCount(payload)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	p.pooled = true
	return p.fill(n)
}

// fill banks n fresh random pairs through one announced refill exchange.
func (p *SenderPool) fill(n int) error {
	start := time.Now()
	// One bulk read for all 2n labels: per-label ReadFull calls would
	// cost 2n separate rng round trips (getrandom syscalls under
	// crypto/rand) at every session setup.
	raw := make([]byte, n*2*ot.MsgLen)
	if _, err := io.ReadFull(p.rng, raw); err != nil {
		return fmt.Errorf("precomp: pair randomness: %w", err)
	}
	fresh := make([][2]ot.Msg, n)
	for i := range fresh {
		copy(fresh[i][0][:], raw[i*2*ot.MsgLen:])
		copy(fresh[i][1][:], raw[i*2*ot.MsgLen+ot.MsgLen:])
	}
	u, err := p.conn.Recv(transport.MsgOTExtU)
	if err != nil {
		return err
	}
	if err := p.ots.SendWithU(fresh, u); err != nil {
		return err
	}
	if p.head > 0 {
		p.pairs = append(p.pairs[:0], p.pairs[p.head:]...)
		p.head = 0
	}
	p.pairs = append(p.pairs, fresh...)
	p.st.Generated += int64(n)
	p.st.Refills++
	elapsed := time.Since(start)
	p.st.OfflineTime += elapsed
	obs.ObservePhase(obs.PhaseOTRefill, elapsed)
	obs.AddOTPooled(int64(n))
	obs.IncOTRefills()
	obs.SetOTPoolDepth(obs.OTSender, p.Available())
	return nil
}

// Send obliviously transfers pairs[j][b_j] for the receiver's hidden
// choice bits, like ot.ExtSender.Send, but following whatever protocol
// the receiver drives: refill announcements are serviced until the
// batch's own frame (direct-IKNP U or derandomization corrections)
// arrives.
func (p *SenderPool) Send(pairs [][2]ot.Msg) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	for {
		typ, payload, err := p.conn.RecvAny(
			transport.MsgOTExtU, transport.MsgOTDerandC, transport.MsgOTRefill)
		if err != nil {
			return err
		}
		switch typ {
		case transport.MsgOTRefill:
			n, err := readCount(payload)
			if err != nil {
				return err
			}
			if n == 0 {
				return fmt.Errorf("precomp: zero-count refill mid-session")
			}
			p.pooled = true
			if err := p.fill(n); err != nil {
				return err
			}
		case transport.MsgOTExtU:
			start := time.Now()
			err := p.ots.SendWithU(pairs, payload)
			p.st.OnlineTime += time.Since(start)
			p.st.Direct += int64(m)
			p.st.Batches++
			return err
		case transport.MsgOTDerandC:
			return p.derand(pairs, payload)
		}
	}
}

// derand answers one online batch: the receiver's corrections d select
// which pooled pair element masks which real label.
func (p *SenderPool) derand(pairs [][2]ot.Msg, d []byte) error {
	start := time.Now()
	m := len(pairs)
	if len(d) != (m+7)/8 {
		return fmt.Errorf("precomp: correction payload is %d bytes, want %d for %d OTs", len(d), (m+7)/8, m)
	}
	if p.Available() < m {
		return fmt.Errorf("precomp: receiver derandomizes %d OTs but only %d are pooled", m, p.Available())
	}
	out := make([]byte, 0, m*2*ot.MsgLen)
	for j := range pairs {
		dj := 0
		if d[j/8]&(1<<uint(j%8)) != 0 {
			dj = 1
		}
		r := &p.pairs[p.head+j]
		var y0, y1 ot.Msg
		for i := 0; i < ot.MsgLen; i++ {
			y0[i] = pairs[j][0][i] ^ r[dj][i]
			y1[i] = pairs[j][1][i] ^ r[1-dj][i]
		}
		out = append(out, y0[:]...)
		out = append(out, y1[:]...)
		// Single-use: zero the pair as it is consumed.
		*r = [2]ot.Msg{}
	}
	p.head += m
	p.seq += int64(m)
	p.st.Consumed += int64(m)
	p.st.Batches++
	if err := p.conn.Send(transport.MsgOTDerandM, out); err != nil {
		return err
	}
	err := p.conn.Flush()
	elapsed := time.Since(start)
	p.st.OnlineTime += elapsed
	obs.ObservePhase(obs.PhaseOTDerand, elapsed)
	obs.SetOTPoolDepth(obs.OTSender, p.Available())
	return err
}
