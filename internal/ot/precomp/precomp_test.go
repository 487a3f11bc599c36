package precomp

import (
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// pools builds a connected sender/receiver pool pair over an in-memory
// pipe, running the base phase and the announcement handshake.
func pools(t *testing.T, cfg PoolConfig, seed int64) (*SenderPool, *ReceiverPool, func()) {
	t.Helper()
	sConn, rConn, closer := transport.Pipe()

	var sp *SenderPool
	var senderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ots, err := ot.NewExtSender(sConn, rand.New(rand.NewSource(seed)))
		if err != nil {
			senderErr = err
			return
		}
		sp = NewSenderPool(sConn, ots, rand.New(rand.NewSource(seed+1)))
		senderErr = sp.HandleAnnounce()
	}()
	otr, err := ot.NewExtReceiver(rConn, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReceiverPool(rConn, otr, rand.New(rand.NewSource(seed+3)), cfg)
	if err := rp.Announce(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if senderErr != nil {
		t.Fatal(senderErr)
	}
	return sp, rp, func() { closer.Close() }
}

// receive issues one batch and collects it: the receiver half of one
// oblivious transfer.
func receive(rp *ReceiverPool, choices []bool) ([]ot.Msg, error) {
	prs, err := rp.IssueAll([][]bool{choices})
	if err != nil {
		return nil, err
	}
	return prs[0].Collect()
}

// transfer runs one oblivious batch through the pools: the sender's Send
// on a goroutine (it reacts to the receiver's frames), the receiver's
// issue and collect inline.
func transfer(t *testing.T, sp *SenderPool, rp *ReceiverPool, pairs [][2]ot.Msg, choices []bool) []ot.Msg {
	t.Helper()
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sendErr = sp.Send(pairs)
	}()
	got, err := receive(rp, choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatalf("sender: %v", sendErr)
	}
	if err != nil {
		t.Fatalf("receiver: %v", err)
	}
	return got
}

func randPairs(rng *rand.Rand, n int) [][2]ot.Msg {
	pairs := make([][2]ot.Msg, n)
	for i := range pairs {
		rng.Read(pairs[i][0][:])
		rng.Read(pairs[i][1][:])
	}
	return pairs
}

func randChoices(rng *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Intn(2) == 1
	}
	return out
}

// directIKNP runs the same batch over raw ExtSender/ExtReceiver and
// returns the receiver's output — the reference the derandomized path
// must match bit for bit.
func directIKNP(t *testing.T, pairs [][2]ot.Msg, choices []bool, seed int64) []ot.Msg {
	t.Helper()
	sConn, rConn, closer := transport.Pipe()
	defer closer.Close()
	var wg sync.WaitGroup
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		ots, err := ot.NewExtSender(sConn, rand.New(rand.NewSource(seed)))
		if err != nil {
			sendErr = err
			return
		}
		sendErr = ots.Send(pairs)
	}()
	otr, err := ot.NewExtReceiver(rConn, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := otr.Receive(choices)
	wg.Wait()
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestDerandConformance is the tentpole property test: for random choice
// vectors and label pairs, the pooled+derandomized transfer must equal
// the direct IKNP transfer bit for bit (both must yield pairs[j][b_j]),
// across batch sizes that cross the 8-bit packing boundary.
func TestDerandConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	sp, rp, done := pools(t, PoolConfig{Capacity: 300, RefillLowWater: 40}, 50)
	defer done()
	for trial, m := range []int{1, 7, 8, 9, 63, 64, 65, 100, 200} {
		pairs := randPairs(rng, m)
		choices := randChoices(rng, m)
		pooled := transfer(t, sp, rp, pairs, choices)
		direct := directIKNP(t, pairs, choices, int64(1000+trial))
		if len(pooled) != m || len(direct) != m {
			t.Fatalf("m=%d: got %d pooled / %d direct transfers", m, len(pooled), len(direct))
		}
		for j, b := range choices {
			want := pairs[j][0]
			if b {
				want = pairs[j][1]
			}
			if pooled[j] != want {
				t.Fatalf("m=%d OT %d: derandomized output wrong for choice %v", m, j, b)
			}
			if pooled[j] != direct[j] {
				t.Fatalf("m=%d OT %d: derandomized output differs from direct IKNP", m, j)
			}
		}
	}
	if st := rp.Stats(); st.Direct != 0 {
		t.Errorf("pooled session used %d direct IKNP OTs", st.Direct)
	}
}

// TestSingleUseSafety proves no pooled OT instance is ever consumed
// twice: consumed sequence ranges are strictly increasing and disjoint
// on both sides, exhaustion triggers a refill (never reuse), and the
// generated/consumed accounting stays consistent throughout.
func TestSingleUseSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Tiny pool so nearly every batch forces a refill exchange.
	sp, rp, done := pools(t, PoolConfig{Capacity: 32, RefillLowWater: 8}, 60)
	defer done()

	var consumed int64
	nextSeq := int64(0)
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(70) // frequently exceeds capacity remnants
		pairs := randPairs(rng, m)
		choices := randChoices(rng, m)

		sBefore, rBefore := sp.Seq(), rp.Seq()
		if sBefore != nextSeq || rBefore != nextSeq {
			t.Fatalf("trial %d: seq diverged (sender %d, receiver %d, want %d)", trial, sBefore, rBefore, nextSeq)
		}
		got := transfer(t, sp, rp, pairs, choices)
		for j, b := range choices {
			want := pairs[j][0]
			if b {
				want = pairs[j][1]
			}
			if got[j] != want {
				t.Fatalf("trial %d OT %d: wrong transfer", trial, j)
			}
		}
		// The consumed range is exactly [nextSeq, nextSeq+m): no entry
		// before nextSeq can be touched again (seq is monotone), so
		// ranges across trials are pairwise disjoint.
		if sp.Seq() != nextSeq+int64(m) || rp.Seq() != nextSeq+int64(m) {
			t.Fatalf("trial %d: consumed range not exactly m=%d wide (sender %d, receiver %d)",
				trial, m, sp.Seq(), rp.Seq())
		}
		nextSeq += int64(m)
		consumed += int64(m)

		st := rp.Stats()
		if st.Consumed != consumed {
			t.Fatalf("trial %d: receiver consumed %d, want %d", trial, st.Consumed, consumed)
		}
		if st.Generated < st.Consumed {
			t.Fatalf("trial %d: consumed %d exceeds generated %d — an entry was reused",
				trial, st.Consumed, st.Generated)
		}
		if got, want := int64(rp.Available()), st.Generated-st.Consumed; got != want {
			t.Fatalf("trial %d: %d available, want generated-consumed=%d", trial, got, want)
		}
	}
	if st := rp.Stats(); st.Refills < 5 {
		t.Errorf("tiny pool under sustained traffic performed only %d refills", st.Refills)
	}
	if ss := sp.Stats(); ss.Generated != rp.Stats().Generated || ss.Consumed != rp.Stats().Consumed {
		t.Errorf("sender accounting (%d/%d) diverges from receiver (%d/%d)",
			ss.Generated, ss.Consumed, rp.Stats().Generated, rp.Stats().Consumed)
	}
}

// TestBackgroundRefill exercises the helper-goroutine precompute path
// (run under -race in CI): refills triggered at low water must resolve
// before the pool runs dry and keep transfers correct.
func TestBackgroundRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	sp, rp, done := pools(t, PoolConfig{Capacity: 64, RefillLowWater: 48, Background: true}, 70)
	defer done()
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(40)
		pairs := randPairs(rng, m)
		choices := randChoices(rng, m)
		got := transfer(t, sp, rp, pairs, choices)
		for j, b := range choices {
			want := pairs[j][0]
			if b {
				want = pairs[j][1]
			}
			if got[j] != want {
				t.Fatalf("trial %d OT %d: wrong transfer", trial, j)
			}
		}
	}
	st := rp.Stats()
	if st.Refills < 2 {
		t.Errorf("background mode performed only %d fills", st.Refills)
	}
	if st.Generated < st.Consumed {
		t.Errorf("consumed %d exceeds generated %d", st.Consumed, st.Generated)
	}
}

// TestEmptyBatch pins that a zero-length batch touches neither the wire
// nor the pool on either side.
func TestEmptyBatch(t *testing.T) {
	sp, rp, done := pools(t, PoolConfig{Capacity: 16}, 80)
	defer done()
	sent0 := rp.conn.(*transport.Conn).BytesSent.Load()
	got, err := receive(rp, nil)
	if err != nil || got != nil {
		t.Fatalf("empty issue/collect = (%v, %v)", got, err)
	}
	if err := sp.Send(nil); err != nil {
		t.Fatalf("empty Send: %v", err)
	}
	if rp.conn.(*transport.Conn).BytesSent.Load() != sent0 {
		t.Error("empty batch put frames on the wire")
	}
	if rp.Stats().Consumed != 0 || sp.Stats().Consumed != 0 {
		t.Error("empty batch consumed pooled OTs")
	}
}

// TestDisabledPoolPassthrough pins the compatibility mode: a zero config
// announces count 0 and every batch runs direct IKNP, counted as such.
func TestDisabledPoolPassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sp, rp, done := pools(t, PoolConfig{}, 90)
	defer done()
	if sp.Pooled() {
		t.Fatal("disabled pool announced as enabled")
	}
	m := 33
	pairs := randPairs(rng, m)
	choices := randChoices(rng, m)
	got := transfer(t, sp, rp, pairs, choices)
	for j, b := range choices {
		want := pairs[j][0]
		if b {
			want = pairs[j][1]
		}
		if got[j] != want {
			t.Fatalf("OT %d: wrong transfer", j)
		}
	}
	if st := rp.Stats(); st.Direct != int64(m) || st.Generated != 0 || st.Consumed != 0 {
		t.Errorf("disabled-pool stats: %+v", st)
	}
}

// TestLowWaterAboveCapacity pins the misconfiguration clamp: a low-water
// mark at or above capacity must degrade to refill-after-every-batch,
// not wedge the session in a zero-count refill exchange.
func TestLowWaterAboveCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sp, rp, done := pools(t, PoolConfig{Capacity: 16, RefillLowWater: 64}, 97)
	defer done()
	for trial := 0; trial < 4; trial++ {
		m := 1 + rng.Intn(12)
		pairs := randPairs(rng, m)
		choices := randChoices(rng, m)
		got := transfer(t, sp, rp, pairs, choices)
		for j, b := range choices {
			want := pairs[j][0]
			if b {
				want = pairs[j][1]
			}
			if got[j] != want {
				t.Fatalf("trial %d OT %d: wrong transfer", trial, j)
			}
		}
	}
	if st := rp.Stats(); st.Generated < st.Consumed {
		t.Errorf("consumed %d exceeds generated %d", st.Consumed, st.Generated)
	}
}

// TestOversizedCapacityFailsLocally pins that a capacity beyond the
// refill limit errors on the receiver before any frame hits the wire.
func TestOversizedCapacityFailsLocally(t *testing.T) {
	sConn, rConn, closer := transport.Pipe()
	defer closer.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Run only the base phase; the announcement must never arrive.
		ot.NewExtSender(sConn, rand.New(rand.NewSource(98))) //nolint:errcheck
	}()
	otr, err := ot.NewExtReceiver(rConn, rand.New(rand.NewSource(99)))
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rp := NewReceiverPool(rConn, otr, rand.New(rand.NewSource(100)), PoolConfig{Capacity: maxRefill + 1})
	sent0 := rConn.BytesSent.Load()
	if err := rp.Announce(); err == nil {
		t.Fatal("oversized capacity must fail Announce")
	}
	if rConn.BytesSent.Load() != sent0 {
		t.Error("oversized capacity leaked frames onto the wire")
	}
}

// TestAnnouncedFillAtSetup pins that an enabled pool is bulk-filled
// during the announcement handshake — before any online batch.
func TestAnnouncedFillAtSetup(t *testing.T) {
	sp, rp, done := pools(t, PoolConfig{Capacity: 128}, 95)
	defer done()
	if !sp.Pooled() {
		t.Fatal("enabled pool not announced")
	}
	if rp.Available() != 128 || sp.Available() != 128 {
		t.Fatalf("setup fill left %d/%d available, want 128/128", rp.Available(), sp.Available())
	}
	if st := rp.Stats(); st.Generated != 128 || st.Refills != 1 || st.OfflineTime <= 0 {
		t.Errorf("setup-fill stats: %+v", st)
	}
	if rp.Stats().OnlineTime != 0 {
		t.Error("setup fill charged online time")
	}
}
