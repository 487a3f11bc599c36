package gc

import (
	"fmt"
	"sync"

	"deepsecure/internal/circuit"
	"deepsecure/internal/sched"
)

// This file holds what the level engines (vec.go) and the scalar
// Garble/Eval oracle share: the worker Pool that stripes one schedule
// level's gates across goroutines, and the half-gates AND and free-gate
// cryptography. A level is a stratum of mutually independent gates — as
// produced by circuit.NewSchedule — processed against explicit
// coordinates: the level's global AND index base fixes every tweak, and
// each AND gate writes its ciphertexts at a rank-derived offset inside a
// caller-provided table block. Nothing depends on execution order inside
// a level, so a Pool can stripe the gates across workers while the
// produced bytes stay identical for any worker count.

// Pool stripes level calls over a process-wide sched.Pool: it owns no
// workers and keeps no per-call state, so one instance is safe for
// concurrent level calls and can back a whole server. Each level run
// submits at most width spans as chunks of one scheduler region, whose
// fixed worker set steals work across every session's runs; hashers
// come from a recycling pool per chunk. Span arithmetic depends only on
// the gate counts and the width, so the bytes produced never depend on
// which goroutine ran a span (pinned by TestSharedPoolMatchesInline).
type Pool struct {
	shared *sched.Pool
	width  int
}

// NewSharedPool builds a pool that submits its level runs to the shared
// scheduler s, fanning each run out at most width ways (width < 1 is
// clamped to 1, the sequential mode). A nil s runs every span inline.
func NewSharedPool(s *sched.Pool, width int) *Pool {
	if width < 1 {
		width = 1
	}
	return &Pool{shared: s, width: width}
}

// Workers returns the pool's per-run fan-out width.
func (p *Pool) Workers() int { return p.width }

// hasherPool recycles Hashers for level spans: a gc.Pool owns no
// workers, so each executed span borrows a hasher for its lifetime. The AES round keys are fixed, so any hasher is
// interchangeable with any other.
var hasherPool = sync.Pool{New: func() any { return NewHasher() }}

// parallelMinANDs is the smallest AND count worth fanning out: below it,
// goroutine handoff costs more than the AES work saved.
const parallelMinANDs = 32

// parallelMinGates is the fan-out threshold for levels that are wide in
// free gates only.
const parallelMinGates = 1024

// laneMinANDs and laneMinFrees set the striping granularity: each worker
// should own at least this many AND gate-instances (= a few full 8-lane
// hash waves) or this many free-gate instances before another worker is
// worth waking.
const (
	laneMinANDs  = 16
	laneMinFrees = 512
)

// runScaled executes fn over per-worker spans of the AND range [0, nAND)
// and the free range [0, nFree). The two populations are striped
// separately — a single partition of the concatenation would hand every
// AES-heavy AND gate to the first workers and leave the rest doing only
// label XORs. scale is the per-gate work multiplier: the level engines
// process scale (= batch size B) samples inside every gate visit, so the
// fan-out thresholds compare nAND×scale gate-instances — a level of 8
// ANDs at B=16 is 128 AES-heavy units and worth striping — while the
// spans handed to workers remain gate ranges (samples stay innermost,
// per worker, for cache locality). Small levels run inline (goroutine
// handoff would cost more than the AES work saved). The first error
// wins.
func (p *Pool) runScaled(nAND, nFree, scale int, fn func(h *Hasher, andLo, andHi, freeLo, freeHi int) error) error {
	w := p.Workers()
	if n := nAND + nFree; w > n {
		w = n
	}
	// Lane-quantum clamp: a worker span smaller than a few 8-lane hash
	// waves runs the wide kernel partially filled (the trailing flush of
	// every span has < garbleUnits/evalUnits gates staged), so fan-out
	// below laneMinANDs AND-instances per worker fragments lanes faster
	// than it adds cores. Free gates are near-free label XORs and only
	// justify an extra worker in bulk. Striping never affects the bytes
	// produced, so the clamp is a pure scheduling choice.
	if lim := (nAND*scale)/laneMinANDs + (nFree*scale)/laneMinFrees; w > lim {
		w = lim
		if w < 1 {
			w = 1
		}
	}
	if w <= 1 || (nAND*scale < parallelMinANDs && (nAND+nFree)*scale < parallelMinGates) {
		h := hasherPool.Get().(*Hasher)
		err := fn(h, 0, nAND, 0, nFree)
		hasherPool.Put(h)
		return err
	}
	// The w spans run as chunks of one scheduler region: workers (and
	// this goroutine) steal chunks across every active region in the
	// process.
	return p.shared.Do(w, func(i int) error {
		andLo, andHi := i*nAND/w, (i+1)*nAND/w
		freeLo, freeHi := i*nFree/w, (i+1)*nFree/w
		if andLo == andHi && freeLo == freeHi {
			return nil
		}
		h := hasherPool.Get().(*Hasher)
		err := fn(h, andLo, andHi, freeLo, freeHi)
		hasherPool.Put(h)
		return err
	})
}

func (g *Garbler) setLabel(w uint32, l Label) error {
	if uint32(len(g.labels)) <= w {
		return fmt.Errorf("gc: garbler label storage not grown past wire %d", w)
	}
	g.labels[w] = l
	g.have[w] = true
	return nil
}

// garbleAND is the half-gates AND garbler against explicit coordinates:
// hasher h, global AND index gid, destination table block dst.
func (g *Garbler) garbleAND(h *Hasher, gate circuit.Gate, gid uint64, dst []byte) error {
	a0, err := g.ZeroLabel(gate.A)
	if err != nil {
		return err
	}
	b0, err := g.ZeroLabel(gate.B)
	if err != nil {
		return err
	}
	var us [garbleUnits]andUnit
	var out Label
	us[0] = andUnit{a0: a0, b0: b0, r: g.R, r2: g.r2, j0: 2 * gid, j1: 2*gid + 1, dst: dst, out: &out}
	garbleANDWide(h, &us, 1)
	return g.setLabel(gate.Out, out)
}

// garbleUnits is how many AND gate-instances fill the hasher's lanes on
// the garble side (4 half-gate hashes each), and evalUnits on the
// evaluate side (2 hashes each).
const (
	garbleUnits = HashLanes / 4
	evalUnits   = HashLanes / 2
)

// andUnit is one staged AND gate-instance on the garble side: the
// half-gates inputs plus where its two ciphertexts (dst) and output
// zero-label (out) go. Inputs are captured by value at staging time, so
// completing a unit later — after other units' lanes hashed alongside it
// — is safe even when out aliases the live label array (level
// independence guarantees no staged unit reads what another writes).
type andUnit struct {
	a0, b0 Label
	r, r2  Label
	j0, j1 uint64
	dst    []byte
	out    *Label
}

// garbleANDWide is the half-gates AND cryptography over up to
// garbleUnits staged gate-instances: all units' hashes — 2 labels × 2
// tweaks each, every label doubled once with the ⊕R variant derived via
// the cached 2R — issue as ONE multi-lane hash call, then each unit's
// half-gate combination completes from the returned lanes. The
// single-unit call is the scalar conformance shape (the one-gate
// Garbler.Garble path); multi-unit calls produce byte-identical tables
// by construction, pinned by the wide-vs-scalar tests.
func garbleANDWide(h *Hasher, us *[garbleUnits]andUnit, n int) {
	for i := 0; i < n; i++ {
		u := &us[i]
		// Hoisted doubling: 2a0 once per label, 2a1 = 2a0 ⊕ 2R.
		da0 := double(u.a0)
		db0 := double(u.b0)
		h.lanes[4*i+0] = xorTweak(da0, u.j0)
		h.lanes[4*i+1] = xorTweak(da0.XOR(u.r2), u.j0)
		h.lanes[4*i+2] = xorTweak(db0, u.j1)
		h.lanes[4*i+3] = xorTweak(db0.XOR(u.r2), u.j1)
	}
	h.hashStaged(4 * n)
	for i := 0; i < n; i++ {
		u := &us[i]
		ha0, ha1 := h.lanes[4*i+0], h.lanes[4*i+1]
		hb0, hb1 := h.lanes[4*i+2], h.lanes[4*i+3]
		pa := u.a0.LSB()
		pb := u.b0.LSB()

		// Generator half-gate.
		tg := ha0.XOR(ha1)
		if pb {
			tg = tg.XOR(u.r)
		}
		wg := ha0
		if pa {
			wg = wg.XOR(tg)
		}

		// Evaluator half-gate.
		te := hb0.XOR(hb1).XOR(u.a0)
		we := hb0
		if pb {
			we = we.XOR(te).XOR(u.a0)
		}

		copy(u.dst[:LabelSize], tg[:])
		copy(u.dst[LabelSize:TableSize], te[:])
		*u.out = wg.XOR(we)
	}
}

// garbleFree handles the tableless gates (XOR, INV) for the scalar
// Garble oracle.
func (g *Garbler) garbleFree(gate circuit.Gate) error {
	a, err := g.ZeroLabel(gate.A)
	if err != nil {
		return err
	}
	switch gate.Op {
	case circuit.XOR:
		b, err := g.ZeroLabel(gate.B)
		if err != nil {
			return err
		}
		return g.setLabel(gate.Out, a.XOR(b))
	case circuit.INV:
		return g.setLabel(gate.Out, a.XOR(g.R))
	default:
		return fmt.Errorf("gc: cannot garble op %v", gate.Op)
	}
}

func (e *Evaluator) setLabel(w uint32, l Label) error {
	if uint32(len(e.labels)) <= w {
		return fmt.Errorf("gc: evaluator label storage not grown past wire %d", w)
	}
	e.labels[w] = l
	e.have[w] = true
	return nil
}

// evalAND is the half-gates AND evaluator against explicit coordinates.
func (e *Evaluator) evalAND(h *Hasher, gate circuit.Gate, gid uint64, tab []byte) error {
	a, err := e.Label(gate.A)
	if err != nil {
		return err
	}
	b, err := e.Label(gate.B)
	if err != nil {
		return err
	}
	var us [evalUnits]evalUnit
	var out Label
	us[0] = evalUnit{a: a, b: b, j0: 2 * gid, j1: 2*gid + 1, tab: tab, out: &out}
	evalANDWide(h, &us, 1)
	return e.setLabel(gate.Out, out)
}

// evalUnit is one staged AND gate-instance on the evaluate side: the two
// active input labels, the tweaks, the gate's ciphertext block and where
// the output label goes. Like andUnit, inputs are captured by value at
// staging time so deferred completion is safe under level independence.
type evalUnit struct {
	a, b   Label
	j0, j1 uint64
	tab    []byte
	out    *Label
}

// evalANDWide is the half-gates AND evaluation over up to evalUnits
// staged gate-instances: all units' hashes (2 per gate — one active
// label per half-gate) issue as one multi-lane hash call, then each
// unit's ciphertext combination completes from the returned lanes.
func evalANDWide(h *Hasher, us *[evalUnits]evalUnit, n int) {
	for i := 0; i < n; i++ {
		u := &us[i]
		h.lanes[2*i+0] = xorTweak(double(u.a), u.j0)
		h.lanes[2*i+1] = xorTweak(double(u.b), u.j1)
	}
	h.hashStaged(2 * n)
	for i := 0; i < n; i++ {
		u := &us[i]
		var tg, te Label
		copy(tg[:], u.tab[:LabelSize])
		copy(te[:], u.tab[LabelSize:TableSize])
		wg := h.lanes[2*i+0]
		if u.a.LSB() {
			wg = wg.XOR(tg)
		}
		we := h.lanes[2*i+1]
		if u.b.LSB() {
			we = we.XOR(te).XOR(u.a)
		}
		*u.out = wg.XOR(we)
	}
}

// evalFree handles the tableless gates (XOR, INV) for the scalar Eval
// oracle.
func (e *Evaluator) evalFree(gate circuit.Gate) error {
	a, err := e.Label(gate.A)
	if err != nil {
		return err
	}
	switch gate.Op {
	case circuit.XOR:
		b, err := e.Label(gate.B)
		if err != nil {
			return err
		}
		return e.setLabel(gate.Out, a.XOR(b))
	case circuit.INV:
		// Free inversion: the label carries through; only the garbler's
		// semantics map flips.
		return e.setLabel(gate.Out, a)
	default:
		return fmt.Errorf("gc: cannot evaluate op %v", gate.Op)
	}
}
