package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/fixed"
	"deepsecure/internal/obs"
	"deepsecure/internal/transport"
)

// GatesPerSec must return 0 — not +Inf or NaN — when no kernel time was
// recorded, which happens legitimately: a session whose every inference
// hit the garble-ahead bank pays no online garbling, and a snapshot
// taken before the first level completes has GateTime == 0.
func TestGatesPerSecZeroGateTime(t *testing.T) {
	cases := []struct {
		name string
		st   Stats
	}{
		{"zero value", Stats{}},
		{"gates but no time", Stats{ANDGates: 1 << 20, FreeGates: 1 << 22}},
		{"negative time", Stats{ANDGates: 100, GateTime: -time.Second}},
	}
	for _, tc := range cases {
		got := tc.st.GatesPerSec()
		if got != 0 {
			t.Errorf("%s: GatesPerSec() = %v, want 0", tc.name, got)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%s: GatesPerSec() = %v, must be finite", tc.name, got)
		}
	}
}

func TestGatesPerSec(t *testing.T) {
	st := Stats{ANDGates: 600, FreeGates: 400, GateTime: 2 * time.Second}
	if got := st.GatesPerSec(); got != 500 {
		t.Fatalf("GatesPerSec() = %v, want 500", got)
	}
}

// TestBatchesTotalCountsFusedOnly pins the serving counters' split: on
// the wire Infer(x) and InferBatch([x]) are the same batch-of-one
// sub-stream, so deepsecure_batches_total counts only fused sub-streams
// of two or more samples while deepsecure_inferences_total counts every
// sample. A session of two Infers, a batch of two and a batch of one
// moves them by exactly 1 and 5.
func TestBatchesTotalCountsFusedOnly(t *testing.T) {
	counter := func(name string) int64 {
		m, ok := obs.Default.Snapshot().Get(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return m.Value
	}
	batches0, inferences0 := counter("deepsecure_batches_total"), counter("deepsecure_inferences_total")

	net := testNet(t, act.ReLU, 74)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(75))}
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		done <- err
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(76))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 6)
	for i := 0; i < 2; i++ {
		if _, _, err := sess.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sess.InferBatch([][]float64{x, x}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.InferBatch([][]float64{x}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	if d := counter("deepsecure_batches_total") - batches0; d != 1 {
		t.Errorf("deepsecure_batches_total moved by %d, want 1", d)
	}
	if d := counter("deepsecure_inferences_total") - inferences0; d != 5 {
		t.Errorf("deepsecure_inferences_total moved by %d, want 5", d)
	}
}
