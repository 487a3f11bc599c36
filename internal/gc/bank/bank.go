// Package bank implements garble-ahead execution banks: the offline/online
// split of ot/precomp extended from OTs to whole inferences. The netlist
// is public and fixed per model, so everything the garbler does except
// choosing input labels can happen before a request arrives — during idle
// time the garbling side pre-garbles future inferences for a compiled
// program, banking each one's Free-XOR delta, input zero-labels, full
// garbled-table stream, and output zero-labels. An online inference then
// costs only input-label selection (XORs), stream writes from the bank,
// and the OT derandomization exchange.
//
// The policy machinery mirrors precomp.Pool: a depth targeted by fills, a
// low-water mark that triggers a refill, and an optional background
// refiller that garbles on a helper goroutine while the session is
// wire-bound. Banked executions are strictly single-use: they are
// seq-numbered at garble time, handed out in FIFO order, removed from the
// bank permanently on Take (a consumer that dies mid-stream discards its
// execution; it is never re-issued), and zeroed on release. Exhaustion
// never blocks — Take reports a miss and the caller falls back to live
// garbling, so a cold or drained bank degrades to exactly the bank-off
// protocol.
//
// With SpillDir set, each banked execution's table bytes (the dominant
// memory cost, ANDs×32 bytes per execution) are spilled to disk and read
// back (and the file deleted — single-use on disk too) on Take; labels
// stay in memory. Spilled tables are plaintext garbled tables: protect
// the directory like any key material.
//
// Determinism: the fill's garble walk draws randomness in exactly the
// order the live garbling engine does (delta, constant-wire labels, then
// input labels in schedule-step order) and stores each level run's tables
// contiguously, so for the same rng state a banked execution's bytes are
// identical to what live garbling would have put on the wire — the
// conformance property the core tests pin.
package bank

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/obs"
)

// Config sizes a garble-ahead execution bank.
type Config struct {
	// Depth is the number of pre-garbled executions targeted by the
	// initial fill and by each refill. 0 disables banking entirely (every
	// inference garbles live, the bank-off protocol).
	Depth int
	// LowWater triggers a background refill once the unconsumed bank
	// drops below it. 0 defaults to Depth/4 (minimum 1).
	LowWater int
	// Background refills the bank on a helper goroutine after a Take
	// leaves it below low water, so banked executions regenerate while
	// the session is wire-bound. Requires an rng that is safe for
	// concurrent use (crypto/rand; deterministic test readers are only
	// for Background=false banks).
	Background bool
	// SpillDir, when non-empty, spills each banked execution's table
	// bytes to a file under the directory instead of holding them in
	// memory; Take reads the file back and deletes it.
	SpillDir string
}

// Enabled reports whether this configuration turns banking on.
func (c Config) Enabled() bool { return c.Depth > 0 }

// Effective returns the configuration with defaults resolved (the
// low-water mark an enabled bank actually refills at).
func (c Config) Effective() Config {
	c.LowWater = c.lowWater()
	return c
}

func (c Config) lowWater() int {
	lw := c.Depth / 4
	if c.LowWater > 0 {
		lw = c.LowWater
	}
	if c.Enabled() && lw < 1 {
		lw = 1
	}
	// A low-water mark above depth would demand a refill from a full
	// bank: clamp so "full" always satisfies the policy.
	if c.Enabled() && lw > c.Depth {
		lw = c.Depth
	}
	return lw
}

// Stats counts a bank's offline and online activity. RefillTime is the
// wall time spent garbling executions into the bank — the crypto the
// online path no longer pays; it accumulates on whichever goroutine ran
// the fill.
type Stats struct {
	Hits   int64 // Takes served from the bank
	Misses int64 // Takes that found the bank empty (or short, for TakeN)
	Banked int64 // executions garbled into the bank
	Spills int64 // executions whose tables were spilled to disk

	Refills    int64 // fill rounds (the initial fill included)
	RefillTime time.Duration
}

// Execution is one pre-garbled inference: everything the garbler's side
// of the protocol produces except the input-bit-dependent label
// selection. Fields are read-only to consumers; Release zeroes the
// secret material when the consumer is done (or has died mid-stream).
type Execution struct {
	seq int64

	// R is the execution's Free-XOR delta; the active label of input bit
	// b on a wire with zero-label Z is Z ⊕ b·R.
	R gc.Label
	// ConstFalse/ConstTrue are the active constant-wire labels the
	// garbler sends at inference start.
	ConstFalse, ConstTrue gc.Label
	// InputZero holds, per StepInputs step of the schedule (both
	// parties' steps, in schedule order), the zero-labels of the step's
	// wires in declaration order.
	InputZero [][]gc.Label
	// Tables holds, per StepLevels step of the schedule, the run's full
	// garbled-table byte stream (levels contiguous, gate rank within a
	// level fixing each table's offset — the exact bytes live garbling
	// streams).
	Tables [][]byte
	// OutZero are the output wires' zero-labels, what output
	// authentication needs. Release keeps them: ownership transfers to
	// the pending inference.
	OutZero []gc.Label

	ANDGates, FreeGates int64

	spill string // path of the spilled tables file, "" when in memory
}

// Seq returns the execution's bank sequence number (strictly monotone
// across a bank's lifetime — single-use instrumentation, like
// precomp.ReceiverPool.Seq).
func (ex *Execution) Seq() int64 { return ex.seq }

// Release zeroes the execution's table bytes and input labels. Call it
// once the stream is flushed — or on a failed inference, where the
// execution is discarded (it was already removed from the bank, so it
// can never be re-issued). OutZero and R are kept: output authentication
// still needs them after the stream is gone.
func (ex *Execution) Release() { ex.zero(false) }

func (ex *Execution) zero(full bool) {
	for _, run := range ex.Tables {
		for i := range run {
			run[i] = 0
		}
	}
	ex.Tables = nil
	for _, zs := range ex.InputZero {
		for i := range zs {
			zs[i] = gc.Label{}
		}
	}
	ex.InputZero = nil
	ex.ConstFalse, ex.ConstTrue = gc.Label{}, gc.Label{}
	if ex.spill != "" {
		os.Remove(ex.spill) //nolint:errcheck — best-effort cleanup
		ex.spill = ""
	}
	if full {
		for i := range ex.OutZero {
			ex.OutZero[i] = gc.Label{}
		}
		ex.OutZero = nil
		ex.R = gc.Label{}
	}
}

// Bank is a FIFO of pre-garbled executions for one compiled schedule.
// Take/TakeN/Fill/Stats are safe for concurrent use (a client may share
// one bank across sessions of the same program); the rng must then be
// concurrency-safe too, like any multi-session randomness source.
type Bank struct {
	sched *circuit.Schedule
	rng   io.Reader
	cfg   Config
	pool  *gc.Pool

	// fillMu serializes garbling (Fill calls and the background
	// refiller): one stateful walk at a time against the shared pool.
	fillMu sync.Mutex

	mu        sync.Mutex
	fifo      []*Execution
	head      int
	nextSeq   int64 // seq assigned to the next banked execution
	seq       int64 // seq of the next execution to be consumed
	refilling bool
	closed    bool
	fillErr   error // sticky background-fill failure (bank stops refilling)
	st        Stats
	wg        sync.WaitGroup
}

// New creates a bank for one compiled schedule. workers sizes the bank's
// private garbling worker pool (0 derives it from GOMAXPROCS via
// gc.NewPool semantics — pass the engine's resolved worker count).
func New(sched *circuit.Schedule, rng io.Reader, workers int, cfg Config) *Bank {
	return NewWithPool(sched, rng, gc.NewPool(workers), cfg)
}

// NewWithPool creates a bank that garbles on the caller's pool instead
// of a private worker set — typically a shared-scheduler pool, so
// background bank fills steal idle machine capacity rather than adding
// goroutines. The bank serializes its own fills (one stateful schedule
// walk at a time), so any pool safe for batch calls works here.
func NewWithPool(sched *circuit.Schedule, rng io.Reader, pool *gc.Pool, cfg Config) *Bank {
	return &Bank{sched: sched, rng: rng, cfg: cfg, pool: pool}
}

// Config returns the bank's (raw) configuration.
func (b *Bank) Config() Config { return b.cfg }

// Stats returns a snapshot of the bank's counters.
func (b *Bank) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

// Err returns the sticky background-fill error, if any: the bank stops
// refilling after one, and consumers fall back to live garbling.
func (b *Bank) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fillErr
}

// Available returns the number of banked, unconsumed executions.
func (b *Bank) Available() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.available()
}

func (b *Bank) available() int { return len(b.fifo) - b.head }

// Seq returns the sequence number of the next execution to be consumed:
// strictly monotone, so tests can prove consumed executions never
// overlap (single-use safety).
func (b *Bank) Seq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Fill tops the bank up to Depth synchronously — the initial offline
// fill at session setup (and a test/bench hook to re-warm between
// runs). Concurrent Fills serialize; a Fill overlapping a background
// refill waits for it.
func (b *Bank) Fill() error {
	if !b.cfg.Enabled() {
		return nil
	}
	b.fillMu.Lock()
	defer b.fillMu.Unlock()
	return b.fillLocked()
}

// fillLocked garbles executions until the bank holds Depth. Caller holds
// fillMu.
func (b *Bank) fillLocked() error {
	banked := false
	for {
		b.mu.Lock()
		if b.closed || b.available() >= b.cfg.Depth {
			if banked {
				b.st.Refills++
			}
			b.mu.Unlock()
			return nil
		}
		b.mu.Unlock()
		start := time.Now()
		ex, err := b.garbleOne()
		if err != nil {
			return err
		}
		b.insert(ex, time.Since(start))
		banked = true
	}
}

// insert banks one freshly garbled execution, assigning its sequence
// number. A bank closed mid-garble discards the execution.
func (b *Bank) insert(ex *Execution, dt time.Duration) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		ex.zero(true)
		return
	}
	ex.seq = b.nextSeq
	b.nextSeq++
	if b.head > 0 && b.head*2 >= len(b.fifo) {
		b.fifo = append(b.fifo[:0], b.fifo[b.head:]...)
		b.head = 0
	}
	b.fifo = append(b.fifo, ex)
	b.st.Banked++
	b.st.RefillTime += dt
	avail := b.available()
	b.mu.Unlock()
	obs.ObservePhase(obs.PhaseBankRefill, dt)
	obs.IncBankRefills()
	obs.SetBankAvailable(avail)
}

// Take removes and returns the oldest banked execution, or (nil, nil)
// on an empty bank — the miss that tells the caller to garble live. A
// taken execution is gone from the bank permanently, whatever its
// consumer's fate. A background refill is kicked off when the take
// leaves the bank below low water.
func (b *Bank) Take() (*Execution, error) {
	exs, err := b.TakeN(1)
	if err != nil || exs == nil {
		return nil, err
	}
	return exs[0], nil
}

// TakeN removes and returns the n oldest banked executions —
// all-or-nothing: a bank holding fewer than n banks none of them and
// reports (nil, nil), one miss. Batched consumers assemble their fused
// stream from n single executions.
func (b *Bank) TakeN(n int) ([]*Execution, error) {
	b.mu.Lock()
	if b.available() < n {
		b.st.Misses++
		b.mu.Unlock()
		obs.AddBankMisses(1)
		b.maybeRefill()
		return nil, nil
	}
	exs := make([]*Execution, n)
	copy(exs, b.fifo[b.head:b.head+n])
	for i := b.head; i < b.head+n; i++ {
		b.fifo[i] = nil
	}
	b.head += n
	b.seq = exs[n-1].seq + 1
	b.mu.Unlock()

	var loadErr error
	for _, ex := range exs {
		if loadErr == nil && ex.spill != "" {
			loadErr = b.load(ex)
		}
		if loadErr != nil {
			// A lost spill file loses the whole take (the executions are
			// already off the bank — single-use means no re-banking):
			// zero the survivors and report the miss; the caller garbles
			// live and the protocol proceeds.
			ex.zero(true)
		}
	}
	b.mu.Lock()
	if loadErr != nil {
		b.st.Misses++
	} else {
		b.st.Hits += int64(n)
	}
	avail := b.available()
	b.mu.Unlock()
	if loadErr != nil {
		obs.AddBankMisses(1)
	} else {
		obs.AddBankHits(int64(n))
	}
	obs.SetBankAvailable(avail)
	b.maybeRefill()
	if loadErr != nil {
		return nil, loadErr
	}
	return exs, nil
}

// maybeRefill starts the background refiller when the policy calls for
// one.
func (b *Bank) maybeRefill() {
	if !b.cfg.Background {
		return
	}
	b.mu.Lock()
	if b.closed || b.refilling || b.fillErr != nil || b.available() >= b.cfg.lowWater() {
		b.mu.Unlock()
		return
	}
	b.refilling = true
	b.wg.Add(1)
	b.mu.Unlock()
	go func() {
		defer b.wg.Done()
		err := func() (err error) {
			// A panic mid-fill is contained into fillErr — the bank
			// degrades to a permanent live-garbling fallback instead of
			// killing the process — and must not leak fillMu, or every
			// later fill (and Close) would deadlock on it.
			defer func() {
				if v := recover(); v != nil {
					err = obs.Panicked("bank: background refill", v)
				}
			}()
			b.fillMu.Lock()
			defer b.fillMu.Unlock()
			return b.fillLocked()
		}()
		b.mu.Lock()
		b.refilling = false
		if err != nil && b.fillErr == nil {
			b.fillErr = err
		}
		b.mu.Unlock()
	}()
}

// Close stops background refilling, waits for an in-flight refill to
// finish, and zeroes every banked execution (removing spill files).
// Further Takes miss; a closed bank is a permanent fallback to live
// garbling.
func (b *Bank) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wg.Wait()
	b.mu.Lock()
	for i := b.head; i < len(b.fifo); i++ {
		ex := b.fifo[i]
		b.mu.Unlock()
		ex.zero(true)
		b.mu.Lock()
		b.fifo[i] = nil
	}
	b.fifo, b.head = nil, 0
	b.mu.Unlock()
}

// garbleOne pre-garbles one execution: the recording twin of the live
// garbling engine's schedule walk, on the same B=1 level kernel. The rng
// draw order — delta, constant labels, then one fresh label per input
// wire in schedule-step order — matches live garbling exactly, and each
// level run's tables land contiguously in run order, so the recorded
// bytes are what live garbling would have streamed from the same rng
// state.
func (b *Bank) garbleOne() (*Execution, error) {
	g, err := gc.NewBatchGarbler(b.rng, 1)
	if err != nil {
		return nil, err
	}
	lf, err := g.ActiveLabel(circuit.WFalse, 0, false)
	if err != nil {
		return nil, err
	}
	lt, err := g.ActiveLabel(circuit.WTrue, 0, true)
	if err != nil {
		return nil, err
	}
	ex := &Execution{R: g.R[0], ConstFalse: lf, ConstTrue: lt}
	g.Grow(b.sched.NumWires)
	for si := range b.sched.Steps {
		st := &b.sched.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			zs := make([]gc.Label, len(st.Wires))
			for i, w := range st.Wires {
				if err := g.AssignInput(w); err != nil {
					return nil, err
				}
				if zs[i], err = g.ZeroLabel(w, 0); err != nil {
					return nil, err
				}
			}
			ex.InputZero = append(ex.InputZero, zs)
		case circuit.StepOutputs:
			for _, w := range st.Wires {
				l, err := g.ZeroLabel(w, 0)
				if err != nil {
					return nil, err
				}
				ex.OutZero = append(ex.OutZero, l)
			}
		case circuit.StepLevels:
			for _, w := range st.PreDrops {
				g.Drop(w)
			}
			run := make([]byte, st.TableBytes)
			off := 0
			for li := st.First; li < st.First+st.N; li++ {
				lv := &b.sched.Levels[li]
				ands, frees := b.sched.LevelGates(lv)
				need := lv.ANDs * gc.TableSize
				if err := g.GarbleLevel(ands, frees, lv.GIDBase, run[off:off+need], b.pool); err != nil {
					return nil, err
				}
				off += need
				for _, w := range lv.Drops {
					g.Drop(w)
				}
			}
			if off != len(run) {
				return nil, fmt.Errorf("bank: run garbled %d table bytes, schedule says %d", off, len(run))
			}
			ex.Tables = append(ex.Tables, run)
		}
	}
	ex.ANDGates, ex.FreeGates = g.ANDGates, g.FreeGates
	if b.cfg.SpillDir != "" {
		if err := b.spillTables(ex); err != nil {
			return nil, err
		}
	}
	return ex, nil
}

// spillTables writes the execution's table runs (concatenated — run
// lengths are schedule-derived, so the split needs no framing) to a
// fresh file and drops them from memory.
func (b *Bank) spillTables(ex *Execution) error {
	b.mu.Lock()
	n := b.nextSeq + int64(b.available()) // unique enough: inserts are serialized by fillMu
	spillID := fmt.Sprintf("exec-%d-%d.tables", n, time.Now().UnixNano())
	b.mu.Unlock()
	name := filepath.Join(b.cfg.SpillDir, spillID)
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("bank: spill: %w", err)
	}
	for _, run := range ex.Tables {
		if _, err := f.Write(run); err != nil {
			f.Close()
			os.Remove(name) //nolint:errcheck — best-effort cleanup
			return fmt.Errorf("bank: spill: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(name) //nolint:errcheck — best-effort cleanup
		return fmt.Errorf("bank: spill: %w", err)
	}
	for _, run := range ex.Tables {
		for i := range run {
			run[i] = 0
		}
	}
	ex.Tables = nil
	ex.spill = name
	b.mu.Lock()
	b.st.Spills++
	b.mu.Unlock()
	obs.IncBankSpills()
	return nil
}

// load reads a spilled execution's tables back (deleting the file —
// single-use on disk too) and splits them into per-run slices by the
// schedule's byte accounting.
func (b *Bank) load(ex *Execution) error {
	data, err := os.ReadFile(ex.spill)
	os.Remove(ex.spill) //nolint:errcheck — single-use: gone either way
	ex.spill = ""
	if err != nil {
		return fmt.Errorf("bank: spill load: %w", err)
	}
	off := 0
	for si := range b.sched.Steps {
		st := &b.sched.Steps[si]
		if st.Kind != circuit.StepLevels {
			continue
		}
		if off+st.TableBytes > len(data) {
			return fmt.Errorf("bank: spill file is %d bytes, schedule wants more", len(data))
		}
		ex.Tables = append(ex.Tables, data[off:off+st.TableBytes])
		off += st.TableBytes
	}
	if off != len(data) {
		return fmt.Errorf("bank: spill file has %d surplus bytes", len(data)-off)
	}
	return nil
}
