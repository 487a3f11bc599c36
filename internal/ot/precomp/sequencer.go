package precomp

import (
	"errors"
	"sync"
)

// The pools in this package are strict FIFOs over a single stateful IKNP
// extension: every consume must happen in the one total order both
// parties agree on. Serial sessions get that order for free. Pipelined
// sessions overlap inferences, so the evaluator runs several consumers
// (one per in-flight inference) against one pool — the Sequencer is the
// ordered-admission gate that serializes them into the deterministic
// order the garbler derives from inference ids: all of inference k's
// batches strictly before any of inference k+1's.

// ErrSequencerAborted is returned by Acquire after Abort: the session is
// tearing down and the waiter's turn will never come.
var ErrSequencerAborted = errors.New("precomp: pool sequencer aborted")

// Sequencer admits consumers one at a time in strictly increasing turn
// order. A consumer Acquires its turn (blocking until every earlier turn
// has Released), issues all of its pool requests, and Releases to
// admit the next. Acquire/Release pair per turn; a consumer with no pool
// work must still pass its turn through (Acquire then Release
// immediately) or every later consumer deadlocks. Safe for concurrent
// use by design.
type Sequencer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	turn    int64
	aborted bool
}

// NewSequencer returns a sequencer whose first admitted turn is first.
func NewSequencer(first int64) *Sequencer {
	s := &Sequencer{turn: first}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Acquire blocks until turn is admitted (all earlier turns Released), or
// returns ErrSequencerAborted if the sequencer is shut down first.
func (s *Sequencer) Acquire(turn int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.turn != turn && !s.aborted {
		s.cond.Wait()
	}
	if s.aborted {
		return ErrSequencerAborted
	}
	return nil
}

// Release passes the baton from turn to turn+1. Calling Release for a
// turn that is not current is a no-op (it can only happen on teardown
// paths after Abort).
func (s *Sequencer) Release(turn int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.turn == turn {
		s.turn++
		s.cond.Broadcast()
	}
}

// Abort wakes every waiter with ErrSequencerAborted and makes all future
// Acquires fail — session teardown, where pending turns will never run.
func (s *Sequencer) Abort() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aborted = true
	s.cond.Broadcast()
}
