package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// batchSessionRun records a full session that classifies xs as ONE
// fused batched inference (Client/Server API) over a logging pipe.
func batchSessionRun(t *testing.T, xs [][]float64, poolCfg precomp.PoolConfig, cliSeed, srvSeed int64) (labels []int, g2e, e2g []byte, srvStats *Stats) {
	t.Helper()
	net := testNet(t, act.ReLU, 61)
	gToE := newLogHalf()
	eToG := newLogHalf()
	cConn := transport.New(logDuplex{r: eToG, w: gToE})
	sConn := transport.New(logDuplex{r: gToE, w: eToG})
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048, Pipeline: 1}
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(srvSeed)), Engine: cfg, OTPool: poolCfg}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(cliSeed)), Engine: cfg}
	labels, _, err := cli.InferBatch(cConn, xs)
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return labels, gToE.bytesWritten(), eToG.bytesWritten(), srvStats
}

// TestBatchSize1Conformance pins the v8 framing: a single inference is a
// batch of one, so Infer(x) and InferBatch([x]) from equal seeds put
// byte-identical raw transcripts on the wire in both directions — same
// frames, same tags, same labels, tables and OT exchanges — with the OT
// pool on and off. Chained with TestPipelineDepth1Conformance, which pins
// the single inference to the serial v3 reference, this anchors the
// batched protocol all the way back to the raw building blocks.
func TestBatchSize1Conformance(t *testing.T) {
	net := testNet(t, act.ReLU, 61)
	rng := rand.New(rand.NewSource(62))
	x := make([]float64, 6)
	for j := range x {
		x[j] = rng.Float64()*2 - 1
	}
	for name, poolCfg := range map[string]precomp.PoolConfig{
		"poolOff": {},
		"poolOn":  {Capacity: 2048, RefillLowWater: 512},
	} {
		t.Run(name, func(t *testing.T) {
			const cliSeed, srvSeed = 8801, 8802
			singleLabels, sgG2E, sgE2G, _ := sessionRun(t, net, [][]float64{x}, poolCfg, 1, cliSeed, srvSeed)
			batchLabels, btG2E, btE2G, _ := batchSessionRun(t, [][]float64{x}, poolCfg, cliSeed, srvSeed)
			if batchLabels[0] != singleLabels[0] {
				t.Fatalf("B=1 batch classified %d, single inference %d", batchLabels[0], singleLabels[0])
			}
			if !bytes.Equal(btG2E, sgG2E) {
				t.Fatalf("garbler→evaluator: B=1 batch transcript (%d bytes) differs from the single inference's (%d bytes)", len(btG2E), len(sgG2E))
			}
			if !bytes.Equal(btE2G, sgE2G) {
				t.Fatalf("evaluator→garbler: B=1 batch transcript (%d bytes) differs from the single inference's (%d bytes)", len(btE2G), len(sgE2G))
			}
		})
	}
}

// TestBatchMatchesPlaintext runs fused batches through the full
// protocol across batch sizes, worker counts, and OT-pool modes, and
// checks every sample's label against the plaintext fixed-point
// forward pass.
func TestBatchMatchesPlaintext(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.TanhPL, 71)
	rng := rand.New(rand.NewSource(72))
	for _, tc := range []struct {
		b       int
		workers int
		pool    precomp.PoolConfig
	}{
		{2, 1, precomp.PoolConfig{}},
		{5, 1, precomp.PoolConfig{Capacity: 2048, RefillLowWater: 512}},
		{5, 4, precomp.PoolConfig{Capacity: 2048, RefillLowWater: 512}},
		{3, 4, precomp.PoolConfig{Capacity: 64, RefillLowWater: 16}}, // refills mid-batch
	} {
		t.Run(fmt.Sprintf("B=%d/workers=%d/pool=%d", tc.b, tc.workers, tc.pool.Capacity), func(t *testing.T) {
			xs := make([][]float64, tc.b)
			want := make([]int, tc.b)
			for i := range xs {
				xs[i] = make([]float64, 6)
				for j := range xs[i] {
					xs[i][j] = rng.Float64()*2 - 1
				}
				want[i] = net.PredictFixed(f, xs[i])
			}
			cConn, sConn, closer := transport.Pipe()
			defer closer.Close()
			cfg := EngineConfig{Workers: tc.workers, ChunkBytes: 2048}
			srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(81)), Engine: cfg, OTPool: tc.pool}
			var wg sync.WaitGroup
			var srvStats *Stats
			var srvErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				srvStats, srvErr = srv.ServeSession(sConn)
			}()
			cli := &Client{Rng: rand.New(rand.NewSource(82)), Engine: cfg}
			labels, st, err := cli.InferBatch(cConn, xs)
			wg.Wait()
			if err != nil {
				t.Fatalf("client: %v", err)
			}
			if srvErr != nil {
				t.Fatalf("server: %v", srvErr)
			}
			for i := range labels {
				if labels[i] != want[i] {
					t.Fatalf("sample %d: secure label %d, plaintext label %d", i, labels[i], want[i])
				}
			}
			if st.Inferences != int64(tc.b) {
				t.Fatalf("client stats count %d inferences, want %d", st.Inferences, tc.b)
			}
			if srvStats.Inferences != int64(tc.b) {
				t.Fatalf("server stats count %d inferences, want %d", srvStats.Inferences, tc.b)
			}
		})
	}
}

// TestBatchComposesWithPipeline interleaves single and batched
// inferences on one pipelined session: a batch occupies one window slot
// and the results resolve per sub-stream, in any arrival order.
func TestBatchComposesWithPipeline(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 73)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Pipeline: 2}
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(83)), Engine: cfg}
	var wg sync.WaitGroup
	var srvStats *Stats
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if srvStats, err = srv.ServeSession(sConn); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(84)), Engine: cfg}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(85))
	sample := func() []float64 {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		return x
	}
	x1 := sample()
	batch := [][]float64{sample(), sample(), sample()}
	x2 := sample()

	p1, err := sess.InferAsync(x1)
	if err != nil {
		t.Fatalf("single 1: %v", err)
	}
	pb, err := sess.InferBatchAsync(batch)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	p2, err := sess.InferAsync(x2)
	if err != nil {
		t.Fatalf("single 2: %v", err)
	}
	l1, _, err := p1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	bl, bst, err := pb.Wait()
	if err != nil {
		t.Fatal(err)
	}
	l2, _, err := p2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if want := net.PredictFixed(f, x1); l1 != want {
		t.Fatalf("single 1: label %d, want %d", l1, want)
	}
	if want := net.PredictFixed(f, x2); l2 != want {
		t.Fatalf("single 2: label %d, want %d", l2, want)
	}
	for i := range batch {
		if want := net.PredictFixed(f, batch[i]); bl[i] != want {
			t.Fatalf("batch sample %d: label %d, want %d", i, bl[i], want)
		}
	}
	if bst.Inferences != 3 || pb.Size() != 3 {
		t.Fatalf("batch stats count %d inferences (size %d), want 3", bst.Inferences, pb.Size())
	}
	if total := srvStats.Inferences; total != 5 {
		t.Fatalf("server counted %d inferences, want 5", total)
	}
	if cs := sess.Stats(); cs.Inferences != 5 {
		t.Fatalf("session stats count %d inferences, want 5", cs.Inferences)
	}
}

// TestBatchOTAmortization pins the round-trip amortization contract: a
// batch of B samples performs exactly as many online OT exchanges as a
// single inference (one per evaluator-input step — NOT B of them) while
// consuming B× the pooled OTs.
func TestBatchOTAmortization(t *testing.T) {
	const b = 8
	pool := precomp.PoolConfig{Capacity: 1 << 14, RefillLowWater: 1 << 10}
	rng := rand.New(rand.NewSource(74))
	xs := make([][]float64, b)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	_, _, _, single := batchSessionRun(t, xs[:1], pool, 9001, 9002)
	_, _, _, batched := batchSessionRun(t, xs, pool, 9003, 9004)
	if single.OTBatches == 0 {
		t.Fatal("single run performed no online OT exchanges — the test net lost its weight inputs")
	}
	if batched.OTBatches != single.OTBatches {
		t.Fatalf("batch of %d performed %d online OT exchanges, single inference %d — round trips did not amortize",
			b, batched.OTBatches, single.OTBatches)
	}
	if batched.OTsConsumed != b*single.OTsConsumed {
		t.Fatalf("batch of %d consumed %d pooled OTs, want %d (%d×%d)",
			b, batched.OTsConsumed, b*single.OTsConsumed, b, single.OTsConsumed)
	}
}

// TestBatchValidation is the batch-input validation coverage: ragged
// sample widths, an empty batch, and a batch beyond the negotiated
// maximum must error client-side BEFORE any frame is sent, leaving the
// session usable.
func TestBatchValidation(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 75)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(91))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	// The client caps itself at 4; the server announces its (larger)
	// default, so 4 is the negotiated maximum.
	cli := &Client{Rng: rand.New(rand.NewSource(92)), Engine: EngineConfig{MaxBatch: 4}}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if sess.MaxBatch() != 4 {
		t.Fatalf("negotiated MaxBatch = %d, want 4", sess.MaxBatch())
	}
	good := func() []float64 { return make([]float64, 6) }
	for _, tc := range []struct {
		name    string
		xs      [][]float64
		wantErr string
	}{
		{"empty batch", nil, "empty"},
		{"ragged widths", [][]float64{good(), make([]float64, 5), good()}, "sample 1 has 5 features"},
		{"beyond negotiated max", [][]float64{good(), good(), good(), good(), good()}, "exceeds the negotiated maximum 4"},
	} {
		sent := cConn.BytesSent.Load()
		_, _, err := sess.InferBatch(tc.xs)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
		if got := cConn.BytesSent.Load(); got != sent {
			t.Fatalf("%s: %d bytes hit the wire before validation", tc.name, got-sent)
		}
	}
	// The session survives every validation failure.
	x := good()
	labels, _, err := sess.InferBatch([][]float64{x, x})
	if err != nil {
		t.Fatalf("batch after validation errors: %v", err)
	}
	if want := net.PredictFixed(f, x); labels[0] != want || labels[1] != want {
		t.Fatalf("labels %v, want %d", labels, want)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
}

// TestBatchServerEnforcesMax pins the server-side cap: a hand-crafted
// batch-begin beyond the announced maximum is a protocol error, not an
// allocation.
func TestBatchServerEnforcesMax(t *testing.T) {
	net := testNet(t, act.ReLU, 76)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(93)), Engine: EngineConfig{MaxBatch: 2}}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(94))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	// Bypass the client's own validation and begin a 3-sample batch at a
	// server that announced 2.
	payload := transport.AppendTag(transport.AppendTag(nil, 1), 3)
	if err := sess.conn.Send(transport.MsgBatchBegin, payload); err != nil {
		t.Fatal(err)
	}
	if err := sess.conn.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr == nil || !strings.Contains(srvErr.Error(), "exceeds the announced maximum 2") {
		t.Fatalf("server error = %v, want batch-cap rejection", srvErr)
	}
}
