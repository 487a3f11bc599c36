package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

func TestMultiInferenceSession(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 21)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(301))}
	var wg sync.WaitGroup
	var srvStats *Stats
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(302))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	if sess.InputLen() != 6 {
		t.Fatalf("InputLen = %d, want 6", sess.InputLen())
	}

	const k = 4
	rng := rand.New(rand.NewSource(303))
	var prevOut []gc.Label
	for i := 0; i < k; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		want := net.PredictFixed(f, x)
		p, err := sess.InferAsync(x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		got, st, err := p.Wait()
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("inference %d: secure label %d, plaintext label %d", i, got, want)
		}
		if st.ANDGates == 0 || st.BytesSent == 0 || st.Inferences != 1 {
			t.Errorf("inference %d: stats not populated: %+v", i, st)
		}
		if st.GateTime <= 0 || st.GatesPerSec() <= 0 {
			t.Errorf("inference %d: crypto-core time not measured: GateTime=%v", i, st.GateTime)
		}
		// Fresh garbling per inference: the output zero-labels of two
		// garbled executions of the same netlist must differ, or the
		// transcripts would be linkable.
		out := append([]gc.Label(nil), p.outZero...)
		if prevOut != nil {
			same := len(out) == len(prevOut)
			if same {
				for j := range out {
					if out[j] != prevOut[j] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatalf("inference %d reused the previous inference's output labels", i)
			}
		}
		prevOut = out
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if srvStats.Inferences != k {
		t.Fatalf("server saw %d inferences, want %d", srvStats.Inferences, k)
	}
	cs := sess.Stats()
	if cs.Inferences != k || cs.BytesSent == 0 {
		t.Fatalf("session stats not populated: %+v", cs)
	}
}

func TestInferMany(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.TanhPL, 22)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(311))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()

	rng := rand.New(rand.NewSource(312))
	xs := make([][]float64, 3)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(f, xs[i])
	}
	cli := &Client{Rng: rand.New(rand.NewSource(313))}
	labels, st, err := cli.InferMany(cConn, xs)
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	for i := range labels {
		if labels[i] != want[i] {
			t.Fatalf("sample %d: secure label %d, plaintext label %d", i, labels[i], want[i])
		}
	}
	if st.Inferences != int64(len(xs)) {
		t.Fatalf("stats report %d inferences, want %d", st.Inferences, len(xs))
	}
}

func TestSessionDisconnectAtBoundaryIsClean(t *testing.T) {
	// A client that vanishes between inferences (instead of sending
	// end-session) must not surface as a server error: the concurrent
	// server treats boundary EOF as an implicit close.
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 23)
	cConn, sConn, closer := transport.Pipe()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(321))}
	var wg sync.WaitGroup
	var srvStats *Stats
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(322))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	x := make([]float64, 6)
	if _, _, err := sess.Infer(x); err != nil {
		t.Fatalf("inference: %v", err)
	}
	closer.Close() // disconnect without MsgEndSession
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("boundary disconnect should be a clean close, got: %v", srvErr)
	}
	if srvStats.Inferences != 1 {
		t.Fatalf("server saw %d inferences, want 1", srvStats.Inferences)
	}
	checkLeaks()
}

func TestBrokenSessionRefusesRetry(t *testing.T) {
	// An error mid-protocol desynchronizes the stream; a retried Infer
	// must fail fast instead of sending frames into the broken session.
	f := fixed.Default
	net := testNet(t, act.ReLU, 25)
	cConn, sConn, closer := transport.Pipe()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(341))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.ServeSession(sConn) //nolint:errcheck — the connection is torn down mid-inference
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(342))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	x := make([]float64, 6)
	if _, _, err := sess.Infer(x); err != nil {
		t.Fatalf("first inference: %v", err)
	}
	closer.Close() // kill the transport under the session
	if _, _, err := sess.Infer(x); err == nil {
		t.Fatal("inference over a dead transport should fail")
	}
	// The retry must be refused without touching the wire.
	sent := cConn.BytesSent.Load()
	if _, _, err := sess.Infer(x); err == nil || cConn.BytesSent.Load() != sent {
		t.Fatalf("retry on broken session: err=%v, sent %d extra bytes", err, cConn.BytesSent.Load()-sent)
	}
	// A wrong-length sample, by contrast, never touches the wire and
	// must not break an open session.
	wg.Wait()
}

func TestValidationErrorKeepsSessionUsable(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 26)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(351))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()

	cli := &Client{Rng: rand.New(rand.NewSource(352))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatalf("open session: %v", err)
	}
	if _, _, err := sess.Infer(make([]float64, 3)); err == nil {
		t.Fatal("wrong feature count must error")
	}
	x := make([]float64, 6)
	want := net.PredictFixed(f, x)
	got, _, err := sess.Infer(x)
	if err != nil {
		t.Fatalf("inference after validation error: %v", err)
	}
	if got != want {
		t.Fatalf("label %d, want %d", got, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
}

func TestClientProgramCacheSharedAcrossSessions(t *testing.T) {
	// Two sessions against the same model must compile the client-side
	// netlist once (the cache is keyed by the public spec).
	f := fixed.Default
	net := testNet(t, act.ReLU, 24)
	cli := &Client{Rng: rand.New(rand.NewSource(331))}
	for i := 0; i < 2; i++ {
		cConn, sConn, closer := transport.Pipe()
		srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(int64(332 + i)))}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.ServeSession(sConn); err != nil {
				t.Errorf("server: %v", err)
			}
		}()
		x := make([]float64, 6)
		if _, _, err := cli.Infer(cConn, x); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		wg.Wait()
		closer.Close()
	}
	if n := len(cli.progs); n != 1 {
		t.Fatalf("client cached %d programs, want 1", n)
	}
}

// TestClientProgramSingleFlight opens N sessions concurrently on a fresh
// Client: the first-session compile must run exactly once, with every
// other session waiting for it, and all N must share the one
// *netgen.Program.
func TestClientProgramSingleFlight(t *testing.T) {
	var compiles atomic.Int64
	prev := compileProgram
	compileProgram = func(net *nn.Network, f fixed.Format, opts netgen.Options) (*netgen.Program, error) {
		compiles.Add(1)
		return prev(net, f, opts)
	}
	defer func() { compileProgram = prev }()

	const n = 8
	net := testNet(t, act.ReLU, 25)
	srv := &Server{Net: net, Fmt: fixed.Default}
	cli := &Client{}
	sessions := make([]*Session, n)
	errs := make([]error, n)
	var wg, srvWG sync.WaitGroup
	for i := 0; i < n; i++ {
		cConn, sConn, closer := transport.Pipe()
		defer closer.Close()
		srvWG.Add(1)
		go func() {
			defer srvWG.Done()
			if _, err := srv.ServeSession(sConn); err != nil {
				t.Errorf("server %d: %v", i, err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sessions[i], errs[i] = cli.NewSession(cConn)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i, s := range sessions {
		if s.prog != sessions[0].prog {
			t.Errorf("session %d got program %p, session 0 got %p", i, s.prog, sessions[0].prog)
		}
		if err := s.Close(); err != nil {
			t.Errorf("close session %d: %v", i, err)
		}
	}
	srvWG.Wait()
	if got := compiles.Load(); got != 1 {
		t.Fatalf("%d concurrent first sessions compiled %d times, want 1", n, got)
	}
}
