package gc

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"deepsecure/internal/sched"
)

// garbleLevelTables garbles one independent level with the given pool and
// returns the produced table bytes. Seeds are fixed so every call over
// the same seeds garbles the identical level with identical labels.
func garbleLevelTables(t *testing.T, pool *Pool, nAND, nFree int) []byte {
	t.Helper()
	g, err := NewBatchGarbler(rand.New(rand.NewSource(61)), 1)
	if err != nil {
		t.Fatal(err)
	}
	ands, frees, maxWire := independentLevel(rand.New(rand.NewSource(62)), nAND, nFree)
	g.Grow(maxWire)
	assignLevelInputs(t, g)
	tables := make([]byte, nAND*TableSize)
	if err := g.GarbleLevel(ands, frees, 0, tables, pool); err != nil {
		t.Fatal(err)
	}
	return tables
}

// TestSharedPoolMatchesInline pins the byte-determinism claim at the gc
// layer: a pool of width w striping spans over a shared scheduler
// produces the exact table bytes of a width-1 pool, which runs every
// level inline, for every width and for level sizes on both sides of
// the parallel clamps.
func TestSharedPoolMatchesInline(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	for _, sz := range []struct{ nAND, nFree int }{{8, 4}, {200, 100}, {1024, 512}} {
		inline := garbleLevelTables(t, NewSharedPool(s, 1), sz.nAND, sz.nFree)
		for _, w := range []int{2, 4} {
			shared := garbleLevelTables(t, NewSharedPool(s, w), sz.nAND, sz.nFree)
			if !bytes.Equal(inline, shared) {
				t.Fatalf("width=%d nAND=%d nFree=%d: tables differ from the width-1 inline baseline", w, sz.nAND, sz.nFree)
			}
		}
	}
}

// TestSharedPoolConcurrentSessions drives one shared scheduler from many
// concurrent "sessions" (independent garblers) and checks every stream
// still matches its inline baseline — the multi-tenant shape the server
// runs, where chunk stealing interleaves sessions arbitrarily. Run with
// -race.
func TestSharedPoolConcurrentSessions(t *testing.T) {
	s := sched.New(4)
	defer s.Close()
	want := garbleLevelTables(t, NewSharedPool(s, 1), 512, 256)
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan string, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := garbleLevelTables(t, NewSharedPool(s, 4), 512, 256)
			if !bytes.Equal(want, got) {
				errs <- "concurrent shared-pool stream diverged from the inline baseline"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestSharedPoolOnClosedScheduler checks graceful degradation: a shared
// pool over a closed scheduler still garbles correctly (inline), so
// engine shutdown ordering can never corrupt a trailing level run.
func TestSharedPoolOnClosedScheduler(t *testing.T) {
	s := sched.New(2)
	s.Close()
	want := garbleLevelTables(t, NewSharedPool(nil, 1), 200, 100)
	got := garbleLevelTables(t, NewSharedPool(s, 2), 200, 100)
	if !bytes.Equal(want, got) {
		t.Fatal("closed-scheduler shared pool produced different tables")
	}
}
