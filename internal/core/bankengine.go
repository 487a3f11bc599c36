package core

import (
	"fmt"

	"deepsecure/internal/circuit"
	"deepsecure/internal/gc"
	"deepsecure/internal/gc/bank"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/transport"
)

// This file is the banked (garble-ahead) client execution path: when the
// session's bank holds pre-garbled executions, the online walk does no
// garbling at all — input steps select labels by XOR from the banked
// zero-labels, and table steps stream the banked bytes with the exact
// chunking policy of the live engine. The evaluator cannot tell the
// difference: for the same rng state a banked single inference is byte-
// and frame-identical to live garbling (the bank's fill walk draws
// randomness in the live engine's order; pinned by
// TestBankStreamConformance). Batched inferences assemble their fused
// wire format from B single banked executions — each sample keeps its
// own delta and labels, exactly as gc.BatchGarbler would have drawn
// them, only the draw order differs from the live batch path (so the
// batch conformance is at label level, not transcript level).

// bankBatchEngine streams b banked executions as one inference
// sub-stream: batchGarbleEngine's wire format (wire-major labels with
// samples innermost, per-level gate-major table interleave) with every
// garbling call replaced by a lookup, each sample carrying its own
// execution's delta and labels.
type bankBatchEngine struct {
	sched *circuit.Schedule
	exs   []*bank.Execution
	conn  transport.FrameConn
	ots   *precomp.SenderPool
	cfg   EngineConfig
	b     int

	inputBits [][]bool
	cursor    int

	labelBuf []byte
	inOrd    int
	tabOrd   int

	cur  []byte      // table chunk being filled
	free chan []byte // recycled chunk buffers
}

func (en *bankBatchEngine) run() error {
	for si := range en.sched.Steps {
		st := &en.sched.Steps[si]
		var err error
		switch st.Kind {
		case circuit.StepInputs:
			err = en.doInputs(st)
		case circuit.StepLevels:
			err = en.doLevels(st)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (en *bankBatchEngine) doInputs(st *circuit.Step) error {
	ord := en.inOrd
	en.inOrd++
	if st.Party == circuit.Garbler {
		payload := en.labelBuf[:0]
		for i := range st.Wires {
			if en.cursor >= len(en.inputBits[0]) {
				return fmt.Errorf("core: garbler input underrun at wire %d", st.Wires[i])
			}
			for s := 0; s < en.b; s++ {
				l := en.exs[s].InputZero[ord][i]
				if en.inputBits[s][en.cursor] {
					l = l.XOR(en.exs[s].R)
				}
				payload = append(payload, l[:]...)
			}
			en.cursor++
		}
		en.labelBuf = payload[:0]
		return en.conn.Send(transport.MsgInputLabels, payload)
	}
	pairs := make([][2]ot.Msg, len(st.Wires)*en.b)
	for i := range st.Wires {
		for s := 0; s < en.b; s++ {
			l0 := en.exs[s].InputZero[ord][i]
			pairs[i*en.b+s] = [2]ot.Msg{ot.Msg(l0), ot.Msg(l0.XOR(en.exs[s].R))}
		}
	}
	return en.ots.Send(pairs)
}

// doLevels streams one level run from the b banked runs. Every
// sample's run must hold exactly the schedule's table bytes for the step.
// At b=1 the interleave is the identity, so the banked run streams
// zero-copy, cut into frames exactly where the live engine's chunk
// policy would cut them: accumulate whole levels, emit once the
// accumulated tail reaches ChunkBytes, flush the remainder at the run
// boundary. For b > 1 the runs interleave level by level — gate rank i,
// sample s lands at (i*b+s)*TableSize — and that copy is the whole
// online table cost of a banked batch.
func (en *bankBatchEngine) doLevels(st *circuit.Step) error {
	ord := en.tabOrd
	en.tabOrd++
	for s, ex := range en.exs {
		if got := len(ex.Tables[ord]); got != st.TableBytes {
			return fmt.Errorf("core: banked run %d of sample %d holds %d table bytes, schedule wants %d", ord, s, got, st.TableBytes)
		}
	}
	chunk := en.cfg.chunkBytes()
	if en.b == 1 {
		run := en.exs[0].Tables[ord]
		start, off := 0, 0
		for li := st.First; li < st.First+st.N; li++ {
			off += en.sched.Levels[li].ANDs * gc.TableSize
			if off-start >= chunk {
				if err := en.conn.Send(transport.MsgTables, run[start:off]); err != nil {
					return err
				}
				start = off
			}
		}
		if off > start {
			return en.conn.Send(transport.MsgTables, run[start:off])
		}
		return nil
	}
	cur := en.cur[:0]
	lvOff := 0 // byte offset of the current level inside each single run
	for li := st.First; li < st.First+st.N; li++ {
		lv := &en.sched.Levels[li]
		width := lv.ANDs * gc.TableSize
		need := width * en.b
		off := len(cur)
		for cap(cur) < off+need {
			cur = append(cur[:cap(cur)], 0)
		}
		cur = cur[:off+need]
		for s := 0; s < en.b; s++ {
			src := en.exs[s].Tables[ord][lvOff : lvOff+width]
			dstBase := off + s*gc.TableSize
			for i := 0; i < lv.ANDs; i++ {
				copy(cur[dstBase+i*en.b*gc.TableSize:], src[i*gc.TableSize:(i+1)*gc.TableSize])
			}
		}
		lvOff += width
		if len(cur) >= chunk {
			if err := en.conn.Send(transport.MsgTables, cur); err != nil {
				return err
			}
			select {
			case en.free <- cur[:0]:
			default:
			}
			cur = grabChunk(en.free, chunk)
			cur = cur[:0]
		}
	}
	if len(cur) > 0 {
		err := en.conn.Send(transport.MsgTables, cur)
		select {
		case en.free <- cur[:0]:
		default:
		}
		if err != nil {
			return err
		}
		cur = nil
	}
	en.cur = grabChunk(en.free, chunk)
	return nil
}
