package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// Golden SHA-256 digests of the two directions of the recorded run in
// TestWireTranscriptGolden. They pin the wire bytes across commits, not
// just between two paths of one commit: an engine rewrite that keeps
// every in-tree conformance pair equal but moves a byte fails here.
// Regenerate only for a deliberate protocol change (and bump
// protocolHello with it).
const (
	goldenG2E = "76ceb7ac3eac1af266d8c66e745eaa5e4f2b6eee42958abcac4efa74d4ba98ce"
	goldenE2G = "c6eb163974d3ef118986a24cab6b32ff8f5a6138e5fc126bde32bd8ec841c431"
)

// TestWireTranscriptGolden records one fixed-seed connection carrying two
// sessions — three single inferences plus a batch of two from a bank-off
// client, then one bank hit from a client with a depth-2 bank — and
// compares each direction's SHA-256 against the committed digests. The
// configuration is the deterministic one (one worker, depth-1 pipeline,
// 2 KiB table chunks, synchronous OT-pool refills), so the byte stream
// depends only on the seeds and the protocol.
func TestWireTranscriptGolden(t *testing.T) {
	net := testNet(t, act.ReLU, 61)
	rng := rand.New(rand.NewSource(62))
	xs := make([][]float64, 6)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	f := fixed.Default

	gToE, eToG := newLogHalf(), newLogHalf()
	cConn := transport.New(logDuplex{r: eToG, w: gToE})
	sConn := transport.New(logDuplex{r: gToE, w: eToG})
	cfg := EngineConfig{Workers: 1, Pipeline: 1, ChunkBytes: 2048}
	srv := &Server{
		Net: net, Fmt: f, Rng: rand.New(rand.NewSource(8803)), Engine: cfg,
		OTPool: precomp.PoolConfig{Capacity: 2048, RefillLowWater: 512, Background: false},
	}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2 && srvErr == nil; i++ {
			_, srvErr = srv.ServeSession(sConn)
		}
	}()

	var labels []int
	cli := &Client{Rng: rand.New(rand.NewSource(8804)), Engine: cfg}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		label, _, err := sess.Infer(xs[i])
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		labels = append(labels, label)
	}
	batch, _, err := sess.InferBatch(xs[3:5])
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	labels = append(labels, batch...)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	bcfg := cfg
	bcfg.Bank = bank.Config{Depth: 2}
	bcli := &Client{Rng: rand.New(rand.NewSource(8805)), Engine: bcfg}
	defer bcli.Close()
	bsess, err := bcli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if err := bsess.FillBank(); err != nil {
		t.Fatal(err)
	}
	label, st, err := bsess.Infer(xs[5])
	if err != nil {
		t.Fatalf("banked inference: %v", err)
	}
	if st.BankHits != 1 {
		t.Fatalf("banked inference stats: %d hits, want 1", st.BankHits)
	}
	labels = append(labels, label)
	if err := bsess.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	for i, x := range xs {
		if want := net.PredictFixed(f, x); labels[i] != want {
			t.Fatalf("sample %d: label %d, plaintext %d", i, labels[i], want)
		}
	}

	g2e := sha256.Sum256(gToE.bytesWritten())
	e2g := sha256.Sum256(eToG.bytesWritten())
	if got := hex.EncodeToString(g2e[:]); got != goldenG2E {
		t.Errorf("garbler→evaluator transcript sha256 %s, golden %s", got, goldenG2E)
	}
	if got := hex.EncodeToString(e2g[:]); got != goldenE2G {
		t.Errorf("evaluator→garbler transcript sha256 %s, golden %s", got, goldenE2G)
	}
}
