package main

import (
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"deepsecure"
	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/netgen"
	"deepsecure/internal/ot"
	"deepsecure/internal/sched"
	"deepsecure/internal/transport"
)

const (
	// otFill is the OT count of one pool fill (deepsecure-serve's
	// default pool capacity), the size the OT replay extends.
	otFill = 1 << 16
	// baseOTs is the IKNP security parameter: the base OTs one
	// extension needs.
	baseOTs = 128
	// chunkBytes is the engine's garbled-table frame size.
	chunkBytes = 1 << 20
	// transportChunks is how many table frames the transport replay
	// streams.
	transportChunks = 128
	// bankReplayDepth is how many executions the bank replay garbles on
	// workloads that run without a bank.
	bankReplayDepth = 2
)

// replayLayers times each layer's public functions on the workload's
// model, outside any session, and records the per-layer metrics.
func (r *runResult) replayLayers(model *deepsecure.Network, counts circuit.Stats, fillMsPerExec float64) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	_, end := r.tr.begin("netgen.Compile", "replay", 0)
	prog, err := netgen.Compile(model, deepsecure.DefaultFormat, netgen.Options{})
	end()
	compile := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	r.set("netgen.compile_s", "s", compile.Seconds())
	r.set("netgen.compile_alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	sc := prog.Schedule
	r.set("circuit.levels", "count", float64(sc.NumLevels()))
	r.set("circuit.and_per_level", "count", float64(sc.ANDs)/float64(max(sc.NumLevels(), 1)))

	b := r.w.Batch
	g, err := r.replayGC(sc, b)
	if err != nil {
		return fmt.Errorf("gc replay: %w", err)
	}
	gates := float64(counts.AND+counts.FreeXOR()) * float64(b)
	r.set("gc.garble_ms_per_inf", "ms", float64(g.garble)/1e6/float64(b))
	r.set("gc.eval_ms_per_inf", "ms", float64(g.eval)/1e6/float64(b))
	r.set("gc.garble_mgates_s", "Mgates/s", gates/g.garble.Seconds()/1e6)
	r.set("gc.eval_mgates_s", "Mgates/s", gates/g.eval.Seconds()/1e6)
	r.set("gc.table_mb_per_inf", "MB", float64(g.tableBytes)/1e6/float64(b))
	if want := counts.AND * gc.TableSize * int64(b); g.tableBytes != want {
		r.problem("gc replay wrote %d table bytes, netgen.FastCount's %d AND gates predict %d",
			g.tableBytes, counts.AND, want)
	}

	if fillMsPerExec == 0 {
		if fillMsPerExec, err = r.replayBank(sc); err != nil {
			return fmt.Errorf("bank replay: %w", err)
		}
	}
	r.set("bank.fill_ms_per_exec", "ms", fillMsPerExec)

	base, ext, err := r.replayOT()
	if err != nil {
		return fmt.Errorf("ot replay: %w", err)
	}
	r.set("ot.base_ms", "ms", float64(base)/1e6)
	r.set("ot.ext_kots_per_s", "kOT/s", otFill/ext.Seconds()/1e3)

	mbps, err := r.replayTransport()
	if err != nil {
		return fmt.Errorf("transport replay: %w", err)
	}
	r.set("transport.mb_per_s", "MB/s", mbps)
	return nil
}

type gcReplay struct {
	garble, eval time.Duration
	tableBytes   int64
}

// replayGC garbles and evaluates every level of the schedule for a
// batch of b samples on the shared scheduler, the way the session
// engines do, timing each GarbleLevel and EvaluateLevel call.
func (r *runResult) replayGC(sc *circuit.Schedule, b int) (gcReplay, error) {
	var out gcReplay
	pool := gc.NewSharedPool(sched.Default(), runtime.GOMAXPROCS(0))
	g, err := gc.NewBatchGarbler(rand.Reader, b)
	if err != nil {
		return out, err
	}
	e, err := gc.NewBatchEvaluator(b)
	if err != nil {
		return out, err
	}
	g.Grow(sc.NumWires)
	e.Grow(sc.NumWires)
	bits := mrand.New(mrand.NewSource(r.seed))
	setActive := func(w uint32, bit func() bool) error {
		for s := 0; s < b; s++ {
			l, err := g.ActiveLabel(w, s, bit())
			if err != nil {
				return err
			}
			e.SetLabel(w, s, l)
		}
		return nil
	}
	randomBit := func() bool { return bits.Intn(2) == 1 }
	if err := setActive(circuit.WFalse, func() bool { return false }); err != nil {
		return out, err
	}
	if err := setActive(circuit.WTrue, func() bool { return true }); err != nil {
		return out, err
	}
	table := make([]byte, sc.MaxLevelANDs*b*gc.TableSize)
	root, endRoot := r.tr.begin("gc.replay", "replay", 0)
	defer endRoot()
	for si := range sc.Steps {
		st := &sc.Steps[si]
		switch st.Kind {
		case circuit.StepInputs:
			for _, w := range st.Wires {
				if err := g.AssignInput(w); err != nil {
					return out, err
				}
				if err := setActive(w, randomBit); err != nil {
					return out, err
				}
			}
		case circuit.StepLevels:
			for _, w := range st.PreDrops {
				g.Drop(w)
				e.Drop(w)
			}
			for li := st.First; li < st.First+st.N; li++ {
				lv := &sc.Levels[li]
				ands, frees := sc.LevelGates(lv)
				tab := table[:lv.ANDs*b*gc.TableSize]
				t0 := time.Now()
				_, end := r.tr.begin("gc.GarbleLevel", "replay", root)
				err := g.GarbleLevel(ands, frees, lv.GIDBase, tab, pool)
				end()
				t1 := time.Now()
				out.garble += t1.Sub(t0)
				if err != nil {
					return out, err
				}
				_, end = r.tr.begin("gc.EvaluateLevel", "replay", root)
				err = e.EvaluateLevel(ands, frees, lv.GIDBase, tab, pool)
				end()
				out.eval += time.Since(t1)
				if err != nil {
					return out, err
				}
				out.tableBytes += int64(len(tab))
				for _, w := range lv.Drops {
					g.Drop(w)
					e.Drop(w)
				}
			}
		}
	}
	return out, nil
}

// replayBank garbles a few executions into a fresh garble-ahead bank
// for the schedule and returns the fill time per execution.
func (r *runResult) replayBank(sc *circuit.Schedule) (float64, error) {
	bk := bank.NewWithPool(sc, rand.Reader, gc.NewSharedPool(sched.Default(), runtime.GOMAXPROCS(0)),
		bank.Config{Depth: bankReplayDepth})
	defer bk.Close()
	t0 := time.Now()
	_, end := r.tr.begin("bank.Fill", "replay", 0)
	err := bk.Fill()
	end()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	n := bk.Stats().Banked
	if n == 0 {
		return 0, fmt.Errorf("bank fill banked nothing")
	}
	return float64(d) / 1e6 / float64(n), nil
}

// replayOT runs the base OTs and one pool-fill-sized IKNP extension
// between two goroutines over an in-memory transport.Pipe and returns
// their wall times.
func (r *runResult) replayOT() (base, ext time.Duration, err error) {
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	pairs := make([][2]ot.Msg, baseOTs)
	choices := make([]bool, baseOTs)
	bits := mrand.New(mrand.NewSource(r.seed))
	for i := range choices {
		choices[i] = bits.Intn(2) == 1
	}
	t0 := time.Now()
	_, end := r.tr.begin("ot.Base", "replay", 0)
	abort := func() { closer.Close() }
	err = both(abort,
		func() error { return ot.BaseSend(sConn, rand.Reader, pairs) },
		func() error { _, err := ot.BaseReceive(cConn, rand.Reader, choices); return err })
	end()
	base = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}

	var (
		snd *ot.ExtSender
		rcv *ot.ExtReceiver
	)
	err = both(abort,
		func() (err error) { snd, err = ot.NewExtSender(cConn, rand.Reader); return err },
		func() (err error) { rcv, err = ot.NewExtReceiver(sConn, rand.Reader); return err })
	if err != nil {
		return 0, 0, err
	}
	extPairs := make([][2]ot.Msg, otFill)
	extChoices := make([]bool, otFill)
	for i := range extChoices {
		extChoices[i] = bits.Intn(2) == 1
	}
	t0 = time.Now()
	_, end = r.tr.begin("ot.Extend", "replay", 0)
	err = both(abort,
		func() error { return snd.Send(extPairs) },
		func() error { _, err := rcv.Receive(extChoices); return err })
	end()
	return base, time.Since(t0), err
}

// replayTransport streams engine-sized table frames over a loopback TCP
// connection and returns the receiver's throughput in MB/s.
func (r *runResult) replayTransport() (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	var srvConn net.Conn
	accepted := make(chan error, 1)
	go func() {
		var err error
		srvConn, err = ln.Accept()
		accepted <- err
	}()
	cliConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer cliConn.Close()
	if err := <-accepted; err != nil {
		return 0, err
	}
	defer srvConn.Close()

	send, recv := transport.New(cliConn), transport.New(srvConn)
	payload := make([]byte, chunkBytes)
	t0 := time.Now()
	abort := func() { cliConn.Close(); srvConn.Close() }
	err = both(abort,
		func() error {
			for i := 0; i < transportChunks; i++ {
				_, end := r.tr.begin("transport.Send", "replay", 0)
				err := send.Send(transport.MsgTables, payload)
				if err == nil {
					err = send.Flush()
				}
				end()
				if err != nil {
					return err
				}
			}
			return nil
		},
		func() error {
			for i := 0; i < transportChunks; i++ {
				_, end := r.tr.begin("transport.Recv", "replay", 0)
				_, err := recv.Recv(transport.MsgTables)
				end()
				if err != nil {
					return err
				}
			}
			return nil
		})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	return float64(transportChunks*chunkBytes) / 1e6 / d.Seconds(), nil
}

// both runs the two sides of a two-party exchange concurrently and
// returns the first error; a failing side calls abort to unblock the
// other.
func both(abort func(), a, b func() error) error {
	var wg sync.WaitGroup
	var errB error
	wg.Add(1)
	go func() {
		defer wg.Done()
		if errB = b(); errB != nil {
			abort()
		}
	}()
	errA := a()
	if errA != nil {
		abort()
	}
	wg.Wait()
	if errA != nil {
		return errA
	}
	return errB
}
