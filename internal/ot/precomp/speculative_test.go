package precomp

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/ot"
	"deepsecure/internal/transport"
)

// specSend runs the sender side of an issued flight: one Send per
// issued step, in issue order (the wire carries the corrections
// back-to-back, so the sender's loop drains them at its own pace).
func specSend(sp *SenderPool, stepPairs [][][2]ot.Msg) chan error {
	done := make(chan error, 1)
	go func() {
		for _, pairs := range stepPairs {
			if err := sp.Send(pairs); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

func checkUnmasked(t *testing.T, got []ot.Msg, pairs [][2]ot.Msg, choices []bool) {
	t.Helper()
	for j := range choices {
		want := pairs[j][0]
		if choices[j] {
			want = pairs[j][1]
		}
		if got[j] != want {
			t.Fatalf("OT %d: unmasked %x, want pairs[%d][%v]", j, got[j][:4], j, choices[j])
		}
	}
}

// TestSpeculativeIssueCollect pins the one-flight protocol's core
// property with the pool on: IssueAll puts every step's corrections on the wire in one
// flight — advancing the pool's FIFO state (Seq, Available) immediately,
// before any response is collected — and each Collect then unmasks its
// step's labels exactly as the strict per-step exchange would have.
func TestSpeculativeIssueCollect(t *testing.T) {
	sp, rp, cleanup := pools(t, PoolConfig{Capacity: 512}, 1100)
	defer cleanup()
	rng := rand.New(rand.NewSource(1101))
	sizes := []int{10, 33, 0, 7} // crosses the 8-bit packing boundary; one empty step
	steps := make([][]bool, len(sizes))
	stepPairs := make([][][2]ot.Msg, len(sizes))
	total := 0
	for i, n := range sizes {
		steps[i] = randChoices(rng, n)
		stepPairs[i] = randPairs(rng, n)
		total += n
	}

	done := specSend(sp, stepPairs)
	prs, err := rp.IssueAll(steps)
	if err != nil {
		t.Fatalf("IssueAll: %v", err)
	}
	if len(prs) != len(steps) {
		t.Fatalf("IssueAll returned %d pending batches, want %d", len(prs), len(steps))
	}
	// The loosening, observable: the whole inference's pool consumption is
	// complete at issue time — a successor could refill or issue now.
	if rp.Seq() != int64(total) {
		t.Fatalf("Seq after issue = %d, want %d (FIFO must advance at issue, not collect)", rp.Seq(), total)
	}
	if rp.Available() != 512-total {
		t.Fatalf("Available after issue = %d, want %d", rp.Available(), 512-total)
	}
	for i, pr := range prs {
		got, err := pr.Collect()
		if err != nil {
			t.Fatalf("Collect %d: %v", i, err)
		}
		if len(got) != sizes[i] {
			t.Fatalf("Collect %d returned %d msgs, want %d", i, len(got), sizes[i])
		}
		checkUnmasked(t, got, stepPairs[i], steps[i])
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
	st := rp.Stats()
	if st.Consumed != int64(total) || st.Batches != int64(len(steps)) {
		t.Fatalf("stats Consumed=%d Batches=%d, want %d/%d", st.Consumed, st.Batches, total, len(steps))
	}
}

// TestSpeculativeCollectOrdering starts the collects out of walk order:
// later tickets block until earlier ones release, so every step still
// unmasks against its own step's response. If the gate failed, a late
// ticket would read an earlier step's response off the wire and produce
// garbage labels — the correctness check below is the ordering check.
func TestSpeculativeCollectOrdering(t *testing.T) {
	sp, rp, cleanup := pools(t, PoolConfig{Capacity: 256}, 1200)
	defer cleanup()
	rng := rand.New(rand.NewSource(1201))
	sizes := []int{9, 17, 5}
	steps := make([][]bool, len(sizes))
	stepPairs := make([][][2]ot.Msg, len(sizes))
	for i, n := range sizes {
		steps[i] = randChoices(rng, n)
		stepPairs[i] = randPairs(rng, n)
	}
	done := specSend(sp, stepPairs)
	prs, err := rp.IssueAll(steps)
	if err != nil {
		t.Fatalf("IssueAll: %v", err)
	}
	outs := make([][]ot.Msg, len(prs))
	errs := make([]error, len(prs))
	var wg sync.WaitGroup
	// Launch the LAST tickets first; they must park in the ticket gate.
	for i := len(prs) - 1; i >= 1; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = prs[i].Collect()
		}(i)
		time.Sleep(10 * time.Millisecond)
	}
	outs[0], errs[0] = prs[0].Collect()
	wg.Wait()
	for i := range prs {
		if errs[i] != nil {
			t.Fatalf("Collect %d: %v", i, errs[i])
		}
		checkUnmasked(t, outs[i], stepPairs[i], steps[i])
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestSpeculativeRefillBarrier pins the drain barrier: an IssueAll that
// needs a refill while responses from an earlier flight are still
// uncollected must wait for those collects (the refill's Y frame queues
// behind them on the shared stream), then refill once, upfront, for its
// whole demand.
func TestSpeculativeRefillBarrier(t *testing.T) {
	const cap0 = 64
	sp, rp, cleanup := pools(t, PoolConfig{Capacity: cap0, RefillLowWater: 1}, 1300)
	defer cleanup()
	rng := rand.New(rand.NewSource(1301))

	// Flight 1 consumes most of the pool and stays uncollected.
	steps1 := [][]bool{randChoices(rng, 30), randChoices(rng, 25)}
	pairs1 := [][][2]ot.Msg{randPairs(rng, 30), randPairs(rng, 25)}
	done1 := specSend(sp, pairs1)
	prs1, err := rp.IssueAll(steps1)
	if err != nil {
		t.Fatalf("flight 1 IssueAll: %v", err)
	}

	// Flight 2 needs more than the 9 remaining entries, so its IssueAll
	// must refill — and therefore block on the barrier until flight 1 is
	// collected.
	steps2 := [][]bool{randChoices(rng, 20)}
	pairs2 := [][][2]ot.Msg{randPairs(rng, 20)}
	issued := make(chan struct{})
	var prs2 []*PendingReceive
	var err2 error
	go func() {
		defer close(issued)
		prs2, err2 = rp.IssueAll(steps2)
	}()
	select {
	case <-issued:
		t.Fatal("IssueAll with uncollected responses and an exhausted pool returned without waiting for the drain barrier")
	case <-time.After(50 * time.Millisecond):
	}

	// Collecting flight 1 drains the barrier; flight 2's refill and issue
	// then proceed. The sender must keep serving: its loop sees flight
	// 2's refill announcement inside the Send for flight 2's step.
	for i, pr := range prs1 {
		got, err := pr.Collect()
		if err != nil {
			t.Fatalf("flight 1 Collect %d: %v", i, err)
		}
		checkUnmasked(t, got, pairs1[i], steps1[i])
	}
	if err := <-done1; err != nil {
		t.Fatalf("flight 1 sender: %v", err)
	}
	done2 := specSend(sp, pairs2)
	<-issued
	if err2 != nil {
		t.Fatalf("flight 2 IssueAll: %v", err2)
	}
	got, err := prs2[0].Collect()
	if err != nil {
		t.Fatalf("flight 2 Collect: %v", err)
	}
	checkUnmasked(t, got, pairs2[0], steps2[0])
	if err := <-done2; err != nil {
		t.Fatalf("flight 2 sender: %v", err)
	}
	// The refill was single and upfront: the pool is back at capacity
	// minus flight 2's consumption, and Seq covers every consumed OT.
	if want := int64(30 + 25 + 20); rp.Seq() != want {
		t.Fatalf("Seq = %d, want %d", rp.Seq(), want)
	}
	if rp.Available() != cap0-20 {
		t.Fatalf("Available = %d, want %d (one refill back to capacity, then flight 2's 20)", rp.Available(), cap0-20)
	}
}

// TestSpeculativeAbortUnblocks pins teardown: Abort must wake both a
// collector parked in the ticket gate and an issuer parked on the drain
// barrier, with ErrSequencerAborted.
func TestSpeculativeAbortUnblocks(t *testing.T) {
	sp, rp, cleanup := pools(t, PoolConfig{Capacity: 32, RefillLowWater: 1}, 1400)
	defer cleanup()
	rng := rand.New(rand.NewSource(1401))
	steps := [][]bool{randChoices(rng, 8), randChoices(rng, 8)}
	stepPairs := [][][2]ot.Msg{randPairs(rng, 8), randPairs(rng, 8)}
	done := specSend(sp, stepPairs)
	prs, err := rp.IssueAll(steps)
	if err != nil {
		t.Fatalf("IssueAll: %v", err)
	}
	// Ticket 1 parks behind uncollected ticket 0; a refill-needing issuer
	// parks on the barrier behind both.
	collectErr := make(chan error, 1)
	go func() {
		_, err := prs[1].Collect()
		collectErr <- err
	}()
	issueErr := make(chan error, 1)
	go func() {
		_, err := rp.IssueAll([][]bool{randChoices(rng, 30)})
		issueErr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rp.Abort()
	for name, ch := range map[string]chan error{"collector": collectErr, "issuer": issueErr} {
		select {
		case err := <-ch:
			if err != ErrSequencerAborted {
				t.Fatalf("%s unblocked with %v, want ErrSequencerAborted", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s still blocked after Abort", name)
		}
	}
	// The sender is still parked in its second Send; tear the pipe down
	// and let it fail.
	cleanup()
	<-done
}

// TestDirectIssueCollect is the pool-off counterpart: IssueAll puts one
// direct-IKNP U matrix per step on the wire in one flight, and the
// Collects — started out of walk order, so the ticket gate must order
// them — decrypt each step's Y response to the chosen labels.
func TestDirectIssueCollect(t *testing.T) {
	sp, rp, cleanup := pools(t, PoolConfig{}, 1500)
	defer cleanup()
	rng := rand.New(rand.NewSource(1501))
	sizes := []int{10, 33, 0, 7}
	steps := make([][]bool, len(sizes))
	stepPairs := make([][][2]ot.Msg, len(sizes))
	total := 0
	for i, n := range sizes {
		steps[i] = randChoices(rng, n)
		stepPairs[i] = randPairs(rng, n)
		total += n
	}
	done := specSend(sp, stepPairs)
	prs, err := rp.IssueAll(steps)
	if err != nil {
		t.Fatalf("IssueAll: %v", err)
	}
	outs := make([][]ot.Msg, len(prs))
	errs := make([]error, len(prs))
	var wg sync.WaitGroup
	for i := len(prs) - 1; i >= 1; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = prs[i].Collect()
		}(i)
		time.Sleep(10 * time.Millisecond)
	}
	outs[0], errs[0] = prs[0].Collect()
	wg.Wait()
	for i := range prs {
		if errs[i] != nil {
			t.Fatalf("Collect %d: %v", i, errs[i])
		}
		if len(outs[i]) != sizes[i] {
			t.Fatalf("Collect %d returned %d msgs, want %d", i, len(outs[i]), sizes[i])
		}
		checkUnmasked(t, outs[i], stepPairs[i], steps[i])
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
	if st := rp.Stats(); st.Direct != int64(total) || st.Consumed != 0 || st.Generated != 0 {
		t.Fatalf("pool-off stats %+v, want Direct=%d and nothing pooled", st, total)
	}
}

// TestFlightCapCountsFrameHeaders pins that flightCap bounds the bytes a
// flight puts on the wire, frame headers included: many one-OT steps
// carry one correction byte but transport.FrameHeader+1 wire bytes each,
// so 700 of them must be held back for their collects while 10 go out
// at issue.
func TestFlightCapCountsFrameHeaders(t *testing.T) {
	sp, rp, cleanup := pools(t, PoolConfig{Capacity: 2048}, 1600)
	defer cleanup()
	conn := rp.conn.(*transport.Conn)
	if 700*(transport.FrameHeader+1) <= flightCap || 700 > flightCap {
		t.Fatalf("700 one-OT steps must exceed flightCap only with headers counted")
	}
	rng := rand.New(rand.NewSource(1601))
	for _, tc := range []struct{ steps, wantAhead int }{
		{10, 10 * (transport.FrameHeader + 1)},
		{700, 0},
	} {
		steps := make([][]bool, tc.steps)
		stepPairs := make([][][2]ot.Msg, tc.steps)
		for i := range steps {
			steps[i] = randChoices(rng, 1)
			stepPairs[i] = randPairs(rng, 1)
		}
		done := specSend(sp, stepPairs)
		before := conn.BytesSent.Load()
		prs, err := rp.IssueAll(steps)
		if err != nil {
			t.Fatalf("IssueAll: %v", err)
		}
		if got := conn.BytesSent.Load() - before; got != int64(tc.wantAhead) {
			t.Fatalf("%d steps: %d bytes sent at issue, want %d", tc.steps, got, tc.wantAhead)
		}
		for i, pr := range prs {
			got, err := pr.Collect()
			if err != nil {
				t.Fatalf("Collect %d: %v", i, err)
			}
			checkUnmasked(t, got, stepPairs[i], steps[i])
		}
		if err := <-done; err != nil {
			t.Fatalf("sender: %v", err)
		}
	}
}
