// Package transport provides the framed two-party channel DeepSecure runs
// over: length-prefixed, typed messages on any io.ReadWriter (an in-memory
// pipe for tests and benchmarks, a TCP connection for the distributed
// deployment). Typed frames make protocol desynchronization and truncated
// streams hard failures instead of silent corruption.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"deepsecure/internal/obs"
)

// MsgType tags each frame with its protocol role.
type MsgType uint8

// Frame types used by the DeepSecure protocol.
const (
	MsgHello MsgType = iota + 1
	MsgConstLabels
	MsgInputLabels
	MsgTables
	MsgOTBase
	MsgOTExtU
	MsgOTExtY
	MsgOutputLabels
	MsgResult
	MsgShare
	MsgArch
	// MsgEndSession ends a multi-inference session, so a server can
	// amortize its handshake, OT base phase, and compiled netlist across
	// many inferences.
	MsgEndSession
	// OT precomputation (offline/online split): MsgOTRefill announces a
	// bulk random-OT generation of n extended OTs (uvarint payload; n=0
	// in the session-setup announcement means the pool is disabled),
	// MsgOTDerandC carries the receiver's packed choice-bit corrections
	// for one online batch, and MsgOTDerandM the sender's two masked
	// labels per OT in response.
	MsgOTRefill
	MsgOTDerandC
	MsgOTDerandM
	// Inference sub-streams (protocol v8): MsgPipeline is the server's
	// announcement of the in-flight window depth and the batch-size cap
	// (two uvarints, sent once after the architecture). MsgBatchBegin
	// opens one inference sub-stream (uvarint inference id ++ uvarint
	// sample count B; a single inference is B=1) that occupies one slot
	// of the window and walks the schedule once for all B samples. The
	// MsgBatch* frames carry its per-inference traffic: each payload
	// starts with the uvarint inference id (AppendTag / SplitTag), so
	// frames of overlapped inferences can share one connection, and
	// carries all B samples wire-major with samples innermost (gate rank
	// i, sample s of a level's tables at (i*B+s)*TableSize). OT frames
	// stay untagged: the pool's strict FIFO order already serializes
	// them into a total order both parties derive from the inference ids.
	MsgPipeline
	MsgBatchBegin
	MsgBatchConst
	MsgBatchInputs
	MsgBatchTables
	MsgBatchOutputs
	// MsgBusy (protocol v6) is the admission controller's shed response:
	// sent by the server in place of MsgArch when it cannot take the
	// session, carrying a uvarint retry-after hint in milliseconds. The
	// server closes the connection after it; the client surfaces a typed
	// retryable error instead of a timeout.
	MsgBusy

	// msgTypeEnd sentinels the name table: every defined MsgType is
	// strictly below it (tests iterate the full range).
	msgTypeEnd
)

// MsgTypeCount is the number of defined frame types; MsgType values in
// [1, MsgTypeCount] are valid protocol frames.
const MsgTypeCount = int(msgTypeEnd) - 1

// msgNames is the static name table behind MsgType.String — built once at
// package init instead of per call (String sits on every protocol-desync
// error path and in hot logging).
var msgNames = map[MsgType]string{
	MsgHello: "hello", MsgConstLabels: "const-labels",
	MsgInputLabels: "input-labels", MsgTables: "tables",
	MsgOTBase: "ot-base", MsgOTExtU: "ot-ext-u", MsgOTExtY: "ot-ext-y",
	MsgOutputLabels: "output-labels", MsgResult: "result",
	MsgShare: "share", MsgArch: "arch",
	MsgEndSession: "end-session",
	MsgOTRefill:   "ot-refill", MsgOTDerandC: "ot-derand-c",
	MsgOTDerandM: "ot-derand-m", MsgPipeline: "pipeline",
	MsgBatchBegin: "batch-begin", MsgBatchConst: "batch-const",
	MsgBatchInputs: "batch-inputs", MsgBatchTables: "batch-tables",
	MsgBatchOutputs: "batch-outputs",
	MsgBusy:         "busy",
}

// String names the message type.
func (m MsgType) String() string {
	if s, ok := msgNames[m]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// MaxFrame bounds a single frame payload (1 GiB) so corrupted length
// prefixes fail fast instead of attempting absurd allocations.
const MaxFrame = 1 << 30

// FrameConn is the frame-level interface the protocol layers speak: a
// *Conn satisfies it directly, and pipelined sessions satisfy it with
// per-inference views that tag outgoing frames and route incoming ones
// through a demultiplexer. Code written against FrameConn (the OT stack,
// the execution engines) runs unchanged over either.
type FrameConn interface {
	Send(t MsgType, payload []byte) error
	Recv(want MsgType) ([]byte, error)
	RecvAny(want ...MsgType) (MsgType, []byte, error)
	Flush() error
}

// Conn is a framed duplex channel. A Conn is not safe for arbitrary
// concurrent use, but it does support the split demultiplexed sessions
// rely on: one goroutine reading via ReadFrame while others send under
// an external lock (the write buffer is only touched by Send and Flush,
// never by ReadFrame).
type Conn struct {
	rw      io.ReadWriter
	wbuf    []byte
	scratch [5]byte

	// Stats mirror the paper's communication accounting. Atomics so a
	// demux reader and the senders can account concurrently.
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64

	// Progress is a generic session-activity counter: protocol layers
	// above may bump it on compute progress (e.g. per evaluated gate
	// level) so transport wrappers below — idle-timeout connections —
	// can tell a compute-busy peer apart from a stalled one even while
	// the wire is quiet.
	Progress atomic.Int64

	// breaker, when installed, forcibly fails the connection's pending
	// and future I/O (see SetBreaker).
	breaker func() error
}

// New wraps a byte stream in a framed connection.
func New(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// SetBreaker installs a hook that forcibly fails the connection's
// pending and future I/O — typically the underlying net.Conn's Close.
// Phase-deadline watchdogs above the transport use it to unblock a
// party stalled mid-phase: a deadline can only be enforced on a blocked
// read by destroying the thing it blocks on. Install before the
// connection is shared across goroutines; the hook itself must be safe
// to call from any goroutine (net.Conn.Close is).
func (c *Conn) SetBreaker(f func() error) { c.breaker = f }

// Break invokes the installed breaker. Without one it reports an error
// and breaks nothing — deadlines degrade to unenforced on connections
// whose owner never wired a breaker (in-memory pipes in tests, callers
// managing their own timeouts).
func (c *Conn) Break() error {
	if c.breaker == nil {
		return fmt.Errorf("transport: no breaker installed")
	}
	return c.breaker()
}

// Send buffers one frame. Frames accumulate until Flush (or an implicit
// flush in Recv) so streamed garbled tables batch into large writes.
func (c *Conn) Send(t MsgType, payload []byte) error {
	return c.send(t, nil, payload)
}

// SendTagged buffers one tagged sub-stream frame whose payload is the
// uvarint inference id followed by payload. The tag is framed in place —
// no copy of the (often megabyte-sized) table payload is made.
func (c *Conn) SendTagged(t MsgType, id uint64, payload []byte) error {
	var tag [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tag[:], id)
	return c.send(t, tag[:n], payload)
}

func (c *Conn) send(t MsgType, tag, payload []byte) error {
	if len(payload)+len(tag) > MaxFrame {
		return fmt.Errorf("transport: frame %v too large (%d bytes)", t, len(payload)+len(tag))
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(tag)+len(payload)))
	c.wbuf = append(c.wbuf, hdr[:]...)
	c.wbuf = append(c.wbuf, tag...)
	c.wbuf = append(c.wbuf, payload...)
	if len(c.wbuf) >= 1<<20 {
		return c.Flush()
	}
	return nil
}

// Flush writes all buffered frames to the underlying stream.
func (c *Conn) Flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	n, err := c.rw.Write(c.wbuf)
	c.BytesSent.Add(int64(n))
	obs.AddBytesSent(int64(n))
	c.wbuf = c.wbuf[:0]
	if err != nil {
		return fmt.Errorf("transport: write: %w", err)
	}
	return nil
}

// Recv reads the next frame, requiring it to have the expected type. A
// mismatch means the two parties disagree about the protocol state and is
// returned as an error. Recv flushes pending writes first, so a party can
// never deadlock waiting for a response to a request it hasn't sent.
func (c *Conn) Recv(want MsgType) ([]byte, error) {
	_, payload, err := c.RecvAny(want)
	return payload, err
}

// RecvAny reads the next frame, requiring its type to be one of want —
// the receive for protocol points with more than one legal answer (a
// hello is answered by the architecture or by a busy refusal). Like Recv it
// flushes pending writes first.
func (c *Conn) RecvAny(want ...MsgType) (MsgType, []byte, error) {
	if err := c.Flush(); err != nil {
		return 0, nil, err
	}
	got, payload, err := c.ReadFrame()
	if err != nil {
		return 0, nil, err
	}
	for _, w := range want {
		if got == w {
			return got, payload, nil
		}
	}
	return 0, nil, fmt.Errorf("transport: protocol desync: got %v frame, want %v", got, wantNames(want))
}

// ReadFrame reads the next frame of any type WITHOUT flushing buffered
// writes: the receive primitive for demultiplexed sessions, where a
// dedicated reader goroutine drains frames while other goroutines send
// under their own lock (a flush here would race the write buffer).
// Single-goroutine callers should prefer Recv/RecvAny, which flush first
// so a request can never deadlock behind its own unflushed send.
func (c *Conn) ReadFrame() (MsgType, []byte, error) {
	if _, err := io.ReadFull(c.rw, c.scratch[:]); err != nil {
		return 0, nil, fmt.Errorf("transport: read header: %w", err)
	}
	got := MsgType(c.scratch[0])
	n := binary.LittleEndian.Uint32(c.scratch[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("transport: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.rw, payload); err != nil {
		return 0, nil, fmt.Errorf("transport: read %v payload: %w", got, err)
	}
	c.BytesReceived.Add(int64(5 + n))
	obs.AddBytesReceived(int64(5 + n))
	return got, payload, nil
}

func wantNames(want []MsgType) string {
	if len(want) == 1 {
		return want[0].String()
	}
	s := ""
	for i, w := range want {
		if i > 0 {
			s += "|"
		}
		s += w.String()
	}
	return s
}

// pipeHalf is one direction of the in-memory duplex pipe: an unbounded
// byte queue with blocking reads.
type pipeHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newPipeHalf() *pipeHalf {
	p := &pipeHalf{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipeHalf) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, errors.New("transport: pipe closed")
	}
	p.buf = append(p.buf, b...)
	p.cond.Broadcast()
	return len(b), nil
}

func (p *pipeHalf) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 {
		if p.closed {
			return 0, io.EOF
		}
		p.cond.Wait()
	}
	n := copy(b, p.buf)
	p.buf = p.buf[n:]
	return n, nil
}

func (p *pipeHalf) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// duplex pairs a read half and a write half into an io.ReadWriter.
type duplex struct {
	r *pipeHalf
	w *pipeHalf
}

func (d duplex) Read(b []byte) (int, error)  { return d.r.Read(b) }
func (d duplex) Write(b []byte) (int, error) { return d.w.Write(b) }

// Close shuts both directions down.
func (d duplex) Close() error {
	d.r.close()
	d.w.close()
	return nil
}

// Pipe returns two connected framed channels backed by unbounded
// in-memory queues: writes never block, so the strictly-alternating
// protocol can also run both parties on one goroutine in tests.
func Pipe() (*Conn, *Conn, io.Closer) {
	ab := newPipeHalf()
	ba := newPipeHalf()
	a := duplex{r: ba, w: ab}
	b := duplex{r: ab, w: ba}
	closer := multiCloser{a, b}
	return New(a), New(b), closer
}

type multiCloser []io.Closer

func (m multiCloser) Close() error {
	for _, c := range m {
		c.Close()
	}
	return nil
}
