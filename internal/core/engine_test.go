package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// TestScheduleTableSizePin pins circuit.NewSchedule's table accounting to
// gc.TableSize: the schedule mirrors the constant (it cannot import gc)
// and the engine trusts Step.TableBytes for prefetching.
func TestScheduleTableSizePin(t *testing.T) {
	tape := circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	in := b.Inputs(circuit.Garbler, 2)
	b.Outputs(b.AND(in[0], in[1]))
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := range sched.Steps {
		total += sched.Steps[i].TableBytes
	}
	if total != gc.TableSize {
		t.Fatalf("schedule accounts %d bytes per AND gate, gc.TableSize is %d", total, gc.TableSize)
	}
}

// logHalf is one direction of an in-memory duplex pipe that also records
// every byte written, so tests can compare the exact wire traffic of two
// protocol runs.
type logHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	log    bytes.Buffer
	closed bool
}

func newLogHalf() *logHalf {
	h := &logHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *logHalf) Write(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, io.ErrClosedPipe
	}
	h.buf = append(h.buf, b...)
	h.log.Write(b)
	h.cond.Broadcast()
	return len(b), nil
}

func (h *logHalf) Read(b []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 {
		if h.closed {
			return 0, io.EOF
		}
		h.cond.Wait()
	}
	n := copy(b, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (h *logHalf) bytesWritten() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]byte{}, h.log.Bytes()...)
}

type logDuplex struct {
	r, w *logHalf
}

func (d logDuplex) Read(b []byte) (int, error)  { return d.r.Read(b) }
func (d logDuplex) Write(b []byte) (int, error) { return d.w.Write(b) }

// randomEngineTape drives a recycling builder through a random netlist
// with mid-stream input batches (like per-layer weight declarations),
// aggressive drops, and derived gates. Returns the tape and input sizes.
func randomEngineTape(r *rand.Rand) (tape *circuit.Tape, nG, nE int) {
	tape = circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	var live []uint32
	inLive := make(map[uint32]bool)
	add := func(w uint32) {
		// Folding can return constants or existing wires; only fresh
		// wires enter the pickable set.
		if w == circuit.WFalse || w == circuit.WTrue || inLive[w] {
			return
		}
		inLive[w] = true
		live = append(live, w)
	}
	addInputs := func(p circuit.Party, n int) {
		for _, w := range b.Inputs(p, n) {
			add(w)
		}
	}
	nG = 3 + r.Intn(8)
	nE = 2 + r.Intn(8)
	addInputs(circuit.Garbler, nG)
	addInputs(circuit.Evaluator, nE)
	pick := func() uint32 { return live[r.Intn(len(live))] }
	for i, steps := 0, 60+r.Intn(240); i < steps; i++ {
		switch op := r.Intn(12); {
		case op < 3:
			add(b.XOR(pick(), pick()))
		case op < 6:
			add(b.AND(pick(), pick()))
		case op < 7:
			add(b.INV(pick()))
		case op < 8:
			add(b.OR(pick(), pick()))
		case op < 9:
			add(b.MUX(pick(), pick(), pick()))
		case op < 11 && len(live) > 6:
			j := r.Intn(len(live))
			b.Drop(live[j])
			delete(inLive, live[j])
			live = append(live[:j], live[j+1:]...)
		default:
			n := 1 + r.Intn(4)
			if r.Intn(2) == 0 {
				addInputs(circuit.Garbler, n)
				nG += n
			} else {
				addInputs(circuit.Evaluator, n)
				nE += n
			}
		}
	}
	outs := make([]uint32, 1+r.Intn(len(live)))
	for i := range outs {
		outs[i] = live[r.Intn(len(live))]
	}
	b.Outputs(outs...)
	return tape, nG, nE
}

// plainTapeEval is the sequential plaintext reference.
type plainTapeEval struct {
	vals map[uint32]bool
	gb   []bool
	eb   []bool
	out  []bool
}

func (s *plainTapeEval) OnInputs(p circuit.Party, ws []uint32) error {
	src := &s.gb
	if p == circuit.Evaluator {
		src = &s.eb
	}
	for _, w := range ws {
		s.vals[w] = (*src)[0]
		*src = (*src)[1:]
	}
	return nil
}

func (s *plainTapeEval) OnGate(g circuit.Gate) error {
	switch g.Op {
	case circuit.XOR:
		s.vals[g.Out] = s.vals[g.A] != s.vals[g.B]
	case circuit.AND:
		s.vals[g.Out] = s.vals[g.A] && s.vals[g.B]
	case circuit.INV:
		s.vals[g.Out] = !s.vals[g.A]
	}
	return nil
}

func (s *plainTapeEval) OnOutputs(ws []uint32) error {
	for _, w := range ws {
		s.out = append(s.out, s.vals[w])
	}
	return nil
}

func (s *plainTapeEval) OnDrop(w uint32) error {
	delete(s.vals, w)
	return nil
}

// runEngines executes nInfer garbled single inferences (batches of one)
// of sched over an in-memory recording pipe with the given worker count
// on both sides,
// and returns the decoded output bits per inference plus the full byte
// logs of each direction.
func runEngines(t *testing.T, sched *circuit.Schedule, gBits, eBits []bool, cfg EngineConfig, nInfer int, seed int64) (outs [][]bool, g2e, e2g []byte) {
	t.Helper()
	workers := cfg.Workers
	gToE := newLogHalf()
	eToG := newLogHalf()
	gConn := transport.New(logDuplex{r: eToG, w: gToE})
	eConn := transport.New(logDuplex{r: gToE, w: eToG})

	type evalResult struct {
		err error
	}
	evalDone := make(chan evalResult, 1)
	go func() {
		rng := rand.New(rand.NewSource(seed + 1))
		ots, err := ot.NewExtReceiver(eConn, rng)
		if err != nil {
			evalDone <- evalResult{err}
			return
		}
		en := &batchEvalEngine{
			sched: sched,
			pool:  gc.NewPool(cfg.workers()),
			conn:  eConn,
			ots:   precomp.NewReceiverPool(eConn, ots, rng, precomp.PoolConfig{}),
			cfg:   cfg,
			b:     1,
		}
		for k := 0; k < nInfer; k++ {
			constLabels, err := eConn.Recv(transport.MsgConstLabels)
			if err != nil {
				evalDone <- evalResult{err}
				return
			}
			e, err := gc.NewBatchEvaluator(1)
			if err != nil {
				evalDone <- evalResult{err}
				return
			}
			var lf, lt gc.Label
			copy(lf[:], constLabels[:gc.LabelSize])
			copy(lt[:], constLabels[gc.LabelSize:])
			e.SetLabel(circuit.WFalse, 0, lf)
			e.SetLabel(circuit.WTrue, 0, lt)
			en.e = e
			en.cursor = 0
			en.inputBits = eBits
			en.outLabels = en.outLabels[:0]
			if err := en.run(); err != nil {
				evalDone <- evalResult{err}
				return
			}
			payload := make([]byte, 0, len(en.outLabels)*gc.LabelSize)
			for _, l := range en.outLabels {
				payload = append(payload, l[:]...)
			}
			if err := eConn.Send(transport.MsgOutputLabels, payload); err != nil {
				evalDone <- evalResult{err}
				return
			}
			if err := eConn.Flush(); err != nil {
				evalDone <- evalResult{err}
				return
			}
		}
		evalDone <- evalResult{nil}
	}()

	rng := rand.New(rand.NewSource(seed))
	ots, err := ot.NewExtSender(gConn, rng)
	if err != nil {
		t.Fatalf("workers=%d: ot sender: %v", workers, err)
	}
	pool := cfg.newPool()
	free := make(chan []byte, 3)
	for k := 0; k < nInfer; k++ {
		g, err := gc.NewBatchGarbler(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		constPayload, err := g.AppendConstLabels(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := gConn.Send(transport.MsgConstLabels, constPayload); err != nil {
			t.Fatal(err)
		}
		en := &batchGarbleEngine{
			sched:     sched,
			g:         g,
			pool:      pool,
			conn:      gConn,
			ots:       precomp.NewSenderPool(gConn, ots, rng),
			cfg:       cfg,
			b:         1,
			inputBits: [][]bool{gBits},
			free:      free,
		}
		if err := en.run(); err != nil {
			t.Fatalf("workers=%d infer %d: garble engine: %v", workers, k, err)
		}
		if err := gConn.Flush(); err != nil {
			t.Fatal(err)
		}
		payload, err := gConn.Recv(transport.MsgOutputLabels)
		if err != nil {
			t.Fatalf("workers=%d infer %d: output labels: %v", workers, k, err)
		}
		if len(payload) != len(en.outZero)*gc.LabelSize {
			t.Fatalf("workers=%d: output frame has %d bytes, want %d", workers, len(payload), len(en.outZero)*gc.LabelSize)
		}
		bits := make([]bool, len(en.outZero))
		for i := range en.outZero {
			var l gc.Label
			copy(l[:], payload[i*gc.LabelSize:])
			switch l {
			case en.outZero[i]:
				bits[i] = false
			case en.outZero[i].XOR(g.R[0]):
				bits[i] = true
			default:
				t.Fatalf("workers=%d infer %d: output label %d failed authentication", workers, k, i)
			}
		}
		outs = append(outs, bits)
	}
	if res := <-evalDone; res.err != nil {
		t.Fatalf("workers=%d: evaluator: %v", workers, res.err)
	}
	return outs, gToE.bytesWritten(), eToG.bytesWritten()
}

// engineTestConfig is the runEngines baseline configuration: dedicated
// per-engine pools (the pre-shared behavior) and small chunks so a run
// produces many frames.
func engineTestConfig(workers int) EngineConfig {
	return EngineConfig{Workers: workers, ChunkBytes: 512, PrivatePool: true}
}

// TestEngineConformance is the cross-mode property test: random recycled
// netlists must produce (a) plaintext-correct outputs, (b) identical
// outputs under Workers=1 and Workers=4, and (c) byte-identical wire
// traffic in both directions between the two modes. Run it with -race:
// the Workers=4 mode exercises the garble pool + writer goroutine and
// the prefetch ring + evaluate pool concurrently.
func TestEngineConformance(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 5
	}
	for it := 0; it < iters; it++ {
		r := rand.New(rand.NewSource(int64(9100 + it)))
		tape, nG, nE := randomEngineTape(r)
		sched, err := circuit.NewSchedule(tape)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		gBits := make([]bool, nG)
		eBits := make([]bool, nE)
		for i := range gBits {
			gBits[i] = r.Intn(2) == 1
		}
		for i := range eBits {
			eBits[i] = r.Intn(2) == 1
		}

		ref := &plainTapeEval{vals: map[uint32]bool{circuit.WFalse: false, circuit.WTrue: true},
			gb: append([]bool{}, gBits...), eb: append([]bool{}, eBits...)}
		if err := tape.Replay(ref); err != nil {
			t.Fatalf("iter %d: reference replay: %v", it, err)
		}

		seed := int64(77000 + it)
		const nInfer = 2
		seqOuts, seqG2E, seqE2G := runEngines(t, sched, gBits, eBits, engineTestConfig(1), nInfer, seed)
		parOuts, parG2E, parE2G := runEngines(t, sched, gBits, eBits, engineTestConfig(4), nInfer, seed)

		for k := 0; k < nInfer; k++ {
			if fmt.Sprint(seqOuts[k]) != fmt.Sprint(ref.out) {
				t.Fatalf("iter %d infer %d: sequential outputs %v, plaintext %v", it, k, seqOuts[k], ref.out)
			}
			if fmt.Sprint(parOuts[k]) != fmt.Sprint(ref.out) {
				t.Fatalf("iter %d infer %d: parallel outputs %v, plaintext %v", it, k, parOuts[k], ref.out)
			}
		}
		if !bytes.Equal(seqG2E, parG2E) {
			t.Fatalf("iter %d: garbler→evaluator streams differ between Workers=1 (%d bytes) and Workers=4 (%d bytes)",
				it, len(seqG2E), len(parG2E))
		}
		if !bytes.Equal(seqE2G, parE2G) {
			t.Fatalf("iter %d: evaluator→garbler streams differ between Workers=1 (%d bytes) and Workers=4 (%d bytes)",
				it, len(seqE2G), len(parE2G))
		}
	}
}

// TestEngineSessionConformance runs the full session protocol (handshake,
// OT base phase, compiled program) against a real model with sequential
// and parallel engines on both sides, pinning label equality across the
// four worker-count combinations.
func TestEngineSessionConformance(t *testing.T) {
	net := testNet(t, act.ReLU, 99)
	x := make([]float64, net.In.Len())
	rng := rand.New(rand.NewSource(5150))
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	var want int
	for i, combo := range [][2]int{{1, 1}, {4, 1}, {1, 4}, {4, 4}} {
		cConn, sConn, closer := transport.Pipe()
		srv := &Server{Net: net, Fmt: fixed.Default, Engine: EngineConfig{Workers: combo[1]}}
		var wg sync.WaitGroup
		wg.Add(1)
		var srvErr error
		go func() {
			defer wg.Done()
			_, srvErr = srv.ServeSession(sConn)
		}()
		cli := &Client{Engine: EngineConfig{Workers: combo[0], ChunkBytes: 2048}}
		labels, _, err := cli.InferMany(cConn, [][]float64{x, x})
		wg.Wait()
		closer.Close()
		if err != nil {
			t.Fatalf("combo %v: %v", combo, err)
		}
		if srvErr != nil {
			t.Fatalf("combo %v: server: %v", combo, srvErr)
		}
		if labels[0] != labels[1] {
			t.Fatalf("combo %v: same sample classified %d then %d", combo, labels[0], labels[1])
		}
		if i == 0 {
			want = labels[0]
		} else if labels[0] != want {
			t.Fatalf("combo %v: label %d, want %d (from sequential run)", combo, labels[0], want)
		}
	}
}

// TestEngineSharedPoolConformance is the tentpole's byte-determinism
// proof at the session-engine layer: for workers∈{1,2,4}, the shared
// scheduler pool must produce wire streams byte-identical to the
// dedicated per-session pool baseline, with 1, 2, and 4 sessions
// running concurrently on the one process-wide scheduler. Run with
// -race: concurrent sessions steal chunks from each other's regions.
func TestEngineSharedPoolConformance(t *testing.T) {
	r := rand.New(rand.NewSource(424))
	tape, nG, nE := randomEngineTape(r)
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}
	gBits := make([]bool, nG)
	eBits := make([]bool, nE)
	for i := range gBits {
		gBits[i] = r.Intn(2) == 1
	}
	for i := range eBits {
		eBits[i] = r.Intn(2) == 1
	}
	const nInfer = 2
	seed := int64(88000)
	for _, w := range []int{1, 2, 4} {
		private := engineTestConfig(w)
		_, wantG2E, wantE2G := runEngines(t, sched, gBits, eBits, private, nInfer, seed)
		shared := private
		shared.PrivatePool = false
		for _, sessions := range []int{1, 2, 4} {
			g2e := make([][]byte, sessions)
			e2g := make([][]byte, sessions)
			var wg sync.WaitGroup
			for s := 0; s < sessions; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					_, g2e[s], e2g[s] = runEngines(t, sched, gBits, eBits, shared, nInfer, seed)
				}(s)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for s := 0; s < sessions; s++ {
				if !bytes.Equal(wantG2E, g2e[s]) {
					t.Fatalf("workers=%d sessions=%d: session %d garbler stream differs from private-pool baseline", w, sessions, s)
				}
				if !bytes.Equal(wantE2G, e2g[s]) {
					t.Fatalf("workers=%d sessions=%d: session %d evaluator stream differs from private-pool baseline", w, sessions, s)
				}
			}
		}
	}
}

// TestEvalEngineDeadPeer is the regression test for a pipelining
// deadlock: when the garbler's connection dies mid-run, the evaluator's
// prefetch ring closes early and the engine must surface the transport
// error — not block forever waiting for a second verdict from the
// prefetcher (whose error channel carries exactly one value).
func TestEvalEngineDeadPeer(t *testing.T) {
	// Two dependent AND levels: 64 table bytes expected, only 32 sent.
	tape := circuit.NewTape()
	b := circuit.NewBuilder(tape, circuit.WithRecycling())
	in := b.Inputs(circuit.Garbler, 2)
	w := b.AND(in[0], in[1])
	v := b.AND(w, in[1])
	b.Outputs(v)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	sched, err := circuit.NewSchedule(tape)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		gConn, eConn, closer := transport.Pipe()
		// The "garbler": input labels, HALF the tables, then death.
		if err := gConn.Send(transport.MsgInputLabels, make([]byte, 2*gc.LabelSize)); err != nil {
			t.Fatal(err)
		}
		if err := gConn.Send(transport.MsgTables, make([]byte, gc.TableSize)); err != nil {
			t.Fatal(err)
		}
		if err := gConn.Flush(); err != nil {
			t.Fatal(err)
		}
		closer.Close()

		e, err := gc.NewBatchEvaluator(1)
		if err != nil {
			t.Fatal(err)
		}
		e.SetLabel(circuit.WFalse, 0, gc.Label{1})
		e.SetLabel(circuit.WTrue, 0, gc.Label{2})
		en := &batchEvalEngine{
			sched: sched,
			e:     e,
			pool:  gc.NewPool(workers),
			conn:  eConn,
			cfg:   EngineConfig{Workers: workers},
			b:     1,
		}
		done := make(chan error, 1)
		go func() { done <- en.run() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: engine succeeded on a truncated table stream", workers)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: engine hung on a dead peer", workers)
		}
	}
}
