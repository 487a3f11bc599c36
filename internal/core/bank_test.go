package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/netgen"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// runBankedSession runs one full client/server session over a recording
// pipe — k single inferences of xs[i%len(xs)], synchronous — and
// returns the labels, both directions' byte transcripts, and the
// session stats. The client and server rngs are seeded identically
// across calls, so two runs differing only in bank config are
// transcript-comparable.
func runBankedSession(t *testing.T, cliCfg EngineConfig, pool int, k int, xs [][]float64) ([]int, []byte, []byte, *Stats) {
	t.Helper()
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	c2s := newLogHalf()
	s2c := newLogHalf()
	cConn := transport.New(logDuplex{r: s2c, w: c2s})
	sConn := transport.New(logDuplex{r: c2s, w: s2c})

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(501))}
	if pool > 0 {
		srv.OTPool.Capacity = pool
	}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(502)), Engine: cliCfg}
	defer cli.Close()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	labels := make([]int, 0, k)
	for i := 0; i < k; i++ {
		label, _, err := sess.Infer(xs[i%len(xs)])
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		labels = append(labels, label)
	}
	st := sess.Stats()
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return labels, c2s.bytesWritten(), s2c.bytesWritten(), st
}

// TestBankStreamConformance is the tentpole's conformance pin: with a
// warm bank covering every inference (k ≤ Depth), the whole session
// transcript — both directions — is byte-identical to the bank-off
// run from the same seeds. The bank's fill draws randomness in exactly
// the live engine's order and a banked sub-stream reproduces the live
// chunking, so the evaluator cannot tell garble-ahead from live
// garbling.
func TestBankStreamConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	xs := make([][]float64, 2)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	// The pooled run uses a pool big enough to never refill mid-session:
	// sender-side refills draw the client rng, and moving garbling
	// offline shifts where mid-inference refill draws land in the rng
	// stream — the transcripts would differ in the pair randomness, not
	// in the garbled material. (Real deployments use crypto/rand, where
	// draw order is meaningless; only this deterministic-seed pin cares.)
	for _, pool := range []int{0, 8192} {
		off, offC2S, offS2C, offSt := runBankedSession(t, EngineConfig{}, pool, 2, xs)
		on, onC2S, onS2C, onSt := runBankedSession(t,
			EngineConfig{Bank: bank.Config{Depth: 2}}, pool, 2, xs)
		for i := range off {
			if off[i] != on[i] {
				t.Fatalf("pool=%d: inference %d label %d banked, %d live", pool, i, on[i], off[i])
			}
		}
		if !bytes.Equal(offC2S, onC2S) {
			t.Fatalf("pool=%d: client→server transcript differs between bank-on and bank-off (%d vs %d bytes)",
				pool, len(onC2S), len(offC2S))
		}
		if !bytes.Equal(offS2C, onS2C) {
			t.Fatalf("pool=%d: server→client transcript differs between bank-on and bank-off (%d vs %d bytes)",
				pool, len(onS2C), len(offS2C))
		}
		if onSt.BankHits != 2 || onSt.BankMisses != 0 {
			t.Fatalf("pool=%d: bank-on stats %d hits / %d misses, want 2 / 0", pool, onSt.BankHits, onSt.BankMisses)
		}
		if offSt.BankHits != 0 || offSt.BankMisses != 0 {
			t.Fatalf("pool=%d: bank-off stats claim bank traffic: %+v", pool, offSt)
		}
		// The headline property: bank hits pay no online garbling, so
		// the hash-core time on the critical path is zero.
		if onSt.GateTime != 0 {
			t.Fatalf("pool=%d: banked session reports %v online garble time, want 0", pool, onSt.GateTime)
		}
		if onSt.BankRefillTime <= 0 {
			t.Fatalf("pool=%d: banked session reports no offline refill time", pool)
		}
	}
}

// TestBankExhaustionFallback drains a depth-1 bank (no background
// refill) across 4 inferences: the first hits, the rest transparently
// fall back to live garbling — and because the bank's fill consumed
// exactly the rng draws the first live inference would have, the whole
// mixed transcript stays byte-identical to the bank-off session.
func TestBankExhaustionFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	xs := make([][]float64, 4)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	// Pool sized to never refill mid-session (see
	// TestBankStreamConformance for why refills would shift rng draws).
	off, offC2S, offS2C, _ := runBankedSession(t, EngineConfig{}, 8192, 4, xs)
	on, onC2S, onS2C, onSt := runBankedSession(t,
		EngineConfig{Bank: bank.Config{Depth: 1}}, 8192, 4, xs)
	for i := range off {
		want := net.PredictFixed(f, xs[i])
		if off[i] != want || on[i] != want {
			t.Fatalf("inference %d: labels %d (off) / %d (on), plaintext %d", i, off[i], on[i], want)
		}
	}
	if onSt.BankHits != 1 || onSt.BankMisses != 3 {
		t.Fatalf("stats %d hits / %d misses, want 1 / 3", onSt.BankHits, onSt.BankMisses)
	}
	if !bytes.Equal(offC2S, onC2S) || !bytes.Equal(offS2C, onS2C) {
		t.Fatal("mixed banked/live transcript differs from the bank-off session")
	}
	// Only the 3 live inferences garbled online.
	if onSt.GateTime <= 0 {
		t.Fatal("live fallback inferences recorded no garble time")
	}
}

// TestBankBatchFallbackAndHits covers the batched path: a batch served
// from B banked executions and a batch that exceeds the bank and falls
// back to the live fused garbler both classify correctly.
func TestBankBatchFallbackAndHits(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	rng := rand.New(rand.NewSource(79))
	const b = 3
	xs := make([][]float64, b)
	want := make([]int, b)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(f, xs[i])
	}

	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(503)), OTPool: precomp.PoolConfig{Capacity: 256}}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(504)), Engine: EngineConfig{Bank: bank.Config{Depth: b}}}
	defer cli.Close()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	// First batch: exactly the bank's depth — all-or-nothing take hits.
	got, st1, err := sess.InferBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("banked batch sample %d: label %d, want %d", i, got[i], want[i])
		}
	}
	if st1.BankHits != b || st1.GateTime != 0 {
		t.Fatalf("banked batch stats: %d hits, %v gate time, want %d hits and 0", st1.BankHits, st1.GateTime, b)
	}
	// Second batch: the bank is drained (Background off) — live fallback.
	got, st2, err := sess.InferBatch(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fallback batch sample %d: label %d, want %d", i, got[i], want[i])
		}
	}
	if st2.BankMisses != b || st2.GateTime <= 0 {
		t.Fatalf("fallback batch stats: %d misses, %v gate time", st2.BankMisses, st2.GateTime)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
}

// close releases a logHalf's readers (the recording pipe has no Close
// of its own; the engine tests never tear it down mid-protocol).
func (h *logHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// failableDuplex wraps a duplex pipe with a write kill-switch: once
// tripped, every write errors — the client's next flush dies
// mid-sub-stream, like a dropped connection.
type failableDuplex struct {
	r, w *logHalf
	dead atomic.Bool
}

func (d *failableDuplex) Read(b []byte) (int, error) { return d.r.Read(b) }
func (d *failableDuplex) Write(b []byte) (int, error) {
	if d.dead.Load() {
		return 0, errors.New("test: link dropped")
	}
	return d.w.Write(b)
}

// TestBankMidStreamDeathSingleUse is the single-use regression pin: a
// banked execution consumed by an inference that dies mid-stream is
// discarded — the bank's consume sequence moves past it and a fresh
// session gets the NEXT execution, never the dead one's material.
func TestBankMidStreamDeathSingleUse(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	x := make([]float64, 6)
	rng := rand.New(rand.NewSource(80))
	for j := range x {
		x[j] = rng.Float64()*2 - 1
	}

	cli := &Client{Rng: rand.New(rand.NewSource(506)), Engine: EngineConfig{Bank: bank.Config{Depth: 2}}}
	defer cli.Close()

	// Session 1 over a killable link.
	c2s, s2c := newLogHalf(), newLogHalf()
	link := &failableDuplex{r: s2c, w: c2s}
	cConn := transport.New(link)
	sConn := transport.New(logDuplex{r: c2s, w: s2c})
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(507))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeSession(sConn) //nolint:errcheck — this session is murdered on purpose
	}()
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	specData, err := net.Spec(f).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bk := cli.banks[string(specData)]
	if bk.Available() != 2 || bk.Seq() != 0 {
		t.Fatalf("bank after fill: available=%d seq=%d, want 2/0", bk.Available(), bk.Seq())
	}
	link.dead.Store(true)
	if _, err := sess.InferAsync(x); err == nil {
		t.Fatal("inference over a dead link succeeded")
	}
	// The dead inference's execution is gone: consumed (seq advanced),
	// not re-banked.
	if bk.Available() != 1 || bk.Seq() != 1 {
		t.Fatalf("bank after mid-stream death: available=%d seq=%d, want 1/1", bk.Available(), bk.Seq())
	}
	if _, err := sess.InferAsync(x); err == nil {
		t.Fatal("broken session accepted another inference")
	}
	c2s.close()
	s2c.close()
	wg.Wait()

	// Session 2: a fresh connection from the same client consumes the
	// NEXT banked execution (seq 1) and completes correctly — the dead
	// execution was never re-issued.
	cConn2, sConn2, closer := transport.Pipe()
	defer closer.Close()
	srv2 := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(508))}
	var wg2 sync.WaitGroup
	var srvErr error
	wg2.Add(1)
	go func() {
		defer wg2.Done()
		_, srvErr = srv2.ServeSession(sConn2)
	}()
	sess2, err := cli.NewSession(cConn2)
	if err != nil {
		t.Fatal(err)
	}
	label, _, err := sess2.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := net.PredictFixed(f, x); label != want {
		t.Fatalf("label %d, want %d", label, want)
	}
	if bk.Seq() != 2 {
		t.Fatalf("bank seq %d after second session's inference, want 2", bk.Seq())
	}
	if st := bk.Stats(); st.Hits != 2 {
		t.Fatalf("bank stats %+v, want 2 hits (the dead take counts: its execution is spent)", st)
	}
	if err := sess2.Close(); err != nil {
		t.Fatal(err)
	}
	wg2.Wait()
	if srvErr != nil {
		t.Fatalf("server 2: %v", srvErr)
	}
	checkLeaks()
}

// tableSink is a FrameConn that records how many table bytes were sent
// and refuses every receive.
type tableSink struct{ tables int }

func (s *tableSink) Send(t transport.MsgType, payload []byte) error {
	if t == transport.MsgTables {
		s.tables += len(payload)
	}
	return nil
}
func (s *tableSink) Flush() error { return nil }
func (s *tableSink) Recv(transport.MsgType) ([]byte, error) {
	return nil, errors.New("test: sink has nothing to receive")
}
func (s *tableSink) RecvAny(...transport.MsgType) (transport.MsgType, []byte, error) {
	return 0, nil, errors.New("test: sink has nothing to receive")
}

// TestBankEngineExactRunLength pins the banked engine's run-length
// check: every sample's banked run must hold exactly the schedule's
// table bytes for its step. A run one table too long or one table too
// short in any sample is an error, both at b=1 (where the run streams
// zero-copy) and at b=2 (where the runs interleave); an exact run
// streams exactly b×TableBytes.
func TestBankEngineExactRunLength(t *testing.T) {
	net := testNet(t, act.ReLU, 21)
	prog, err := netgen.Compile(net, fixed.Default, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := prog.Schedule
	var st *circuit.Step
	ord := 0 // index of st among the schedule's level runs
	for i := range sched.Steps {
		if s := &sched.Steps[i]; s.Kind == circuit.StepLevels {
			if s.TableBytes > 0 {
				st = s
				break
			}
			ord++
		}
	}
	if st == nil {
		t.Fatal("test net schedules no garbled tables")
	}
	bk := bank.NewWithPool(sched, rand.New(rand.NewSource(510)), EngineConfig{Workers: 1}.newPool(), bank.Config{Depth: 2})
	defer bk.Close()
	for _, b := range []int{1, 2} {
		for _, delta := range []int{0, gc.TableSize, -gc.TableSize} {
			if err := bk.Fill(); err != nil {
				t.Fatal(err)
			}
			exs, err := bk.TakeN(b)
			if err != nil || exs == nil {
				t.Fatalf("take %d: %v", b, err)
			}
			// Mis-size the last sample's run, so a check that only looks
			// at sample 0 fails the b=2 cases.
			victim := exs[b-1]
			run := victim.Tables[ord]
			if delta > 0 {
				victim.Tables[ord] = append(run[:len(run):len(run)], make([]byte, delta)...)
			} else {
				victim.Tables[ord] = run[:len(run)+delta]
			}
			sink := &tableSink{}
			en := &bankBatchEngine{
				sched:  sched,
				exs:    exs,
				conn:   sink,
				cfg:    EngineConfig{ChunkBytes: 2048},
				b:      b,
				tabOrd: ord,
				free:   make(chan []byte, 3),
			}
			err = en.doLevels(st)
			for _, ex := range exs {
				ex.Release()
			}
			switch {
			case delta == 0 && err != nil:
				t.Fatalf("b=%d exact run rejected: %v", b, err)
			case delta == 0 && sink.tables != b*st.TableBytes:
				t.Fatalf("b=%d exact run streamed %d table bytes, want %d", b, sink.tables, b*st.TableBytes)
			case delta != 0 && (err == nil || !strings.Contains(err.Error(), "table bytes")):
				t.Fatalf("b=%d run off by %d bytes: err = %v, want a run-length error", b, delta, err)
			}
		}
	}
}
