package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// wireFrame is one parsed protocol frame of a recorded byte stream.
type wireFrame struct {
	typ     transport.MsgType
	payload []byte
}

func parseFrames(t *testing.T, raw []byte) []wireFrame {
	t.Helper()
	var out []wireFrame
	for off := 0; off < len(raw); {
		if off+5 > len(raw) {
			t.Fatalf("truncated frame header at offset %d", off)
		}
		typ := transport.MsgType(raw[off])
		n := int(binary.LittleEndian.Uint32(raw[off+1 : off+5]))
		off += 5
		if off+n > len(raw) {
			t.Fatalf("truncated %v payload at offset %d", typ, off)
		}
		out = append(out, wireFrame{typ, raw[off : off+n]})
		off += n
	}
	return out
}

// beginPayload is a MsgBatchBegin payload: the uvarint inference id,
// then the uvarint sample count.
func beginPayload(id uint64, b int) []byte {
	return transport.AppendTag(transport.AppendTag(nil, id), uint64(b))
}

// stripV4 reduces one direction of a session's frame stream to its v3
// content: session and sub-stream framing is dropped (hello / arch /
// pipeline / begin / end — after validating payloads and tags), tagged
// per-inference MsgBatch* frames map to their untagged v3 types with
// the tag removed, and OT frames pass through. The garbler streams
// inferences serially, so its tagged frames must carry the latest begun
// id; the evaluator's output frames must tag inferences in completion
// order (sequential on a depth-1 session).
func stripV4(t *testing.T, frames []wireFrame) []wireFrame {
	t.Helper()
	var out []wireFrame
	nextBegin := uint64(1)
	nextOut := uint64(1)
	cur := uint64(0) // latest begun inference in this direction
	strip := func(f wireFrame, to transport.MsgType, wantID uint64) wireFrame {
		id, content, err := transport.SplitTag(f.payload)
		if err != nil {
			t.Fatalf("%v frame: %v", f.typ, err)
		}
		if id != wantID {
			t.Fatalf("%v frame tagged %d, want inference %d", f.typ, id, wantID)
		}
		return wireFrame{to, content}
	}
	for _, f := range frames {
		switch f.typ {
		case transport.MsgHello:
			if string(f.payload) != protocolHello {
				t.Fatalf("hello = %q", f.payload)
			}
		case transport.MsgArch, transport.MsgEndSession:
		case transport.MsgPipeline:
			d, n := binary.Uvarint(f.payload)
			if n <= 0 || d < 1 {
				t.Fatalf("malformed pipeline payload %v", f.payload)
			}
			mb, n2 := binary.Uvarint(f.payload[n:])
			if n2 <= 0 || n+n2 != len(f.payload) || mb < 1 {
				t.Fatalf("malformed pipeline payload %v", f.payload)
			}
		case transport.MsgBatchBegin:
			id, n := binary.Uvarint(f.payload)
			if n <= 0 || id != nextBegin {
				t.Fatalf("batch-begin payload %v, want id %d", f.payload, nextBegin)
			}
			bsz, n2 := binary.Uvarint(f.payload[n:])
			if n2 <= 0 || n+n2 != len(f.payload) || bsz < 1 {
				t.Fatalf("batch-begin payload %v carries no valid batch size", f.payload)
			}
			cur = id
			nextBegin++
		case transport.MsgBatchConst:
			out = append(out, strip(f, transport.MsgConstLabels, cur))
		case transport.MsgBatchInputs:
			out = append(out, strip(f, transport.MsgInputLabels, cur))
		case transport.MsgBatchTables:
			out = append(out, strip(f, transport.MsgTables, cur))
		case transport.MsgBatchOutputs:
			out = append(out, strip(f, transport.MsgOutputLabels, nextOut))
			nextOut++
		default:
			// OT traffic (base, extension, refill, derandomization) is
			// untagged in v4 and compares as-is.
			out = append(out, f)
		}
	}
	return out
}

// referenceSerialRun replays the pre-pipelining (v3) serial wire
// protocol from the raw building blocks — shared OT extension and pools,
// untagged frames, strictly alternating inferences, one B=1 engine pair
// per inference with no session, mux or window around it — recording
// both directions. Its randomness consumption matches the session path's
// (extension base phase, pool fill, one garbler per inference), so with
// equal seeds the frame contents must match a depth-1 v4 session's. It
// drives the same engines a session does, so it pins the session
// framing, not the engines; TestWireTranscriptGolden pins those across
// commits.
func referenceSerialRun(t *testing.T, net *nn.Network, xs [][]float64, poolCfg precomp.PoolConfig, cliSeed, srvSeed int64) (g2e, e2g []byte) {
	t.Helper()
	f := fixed.Default
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048}
	gToE := newLogHalf()
	eToG := newLogHalf()
	gConn := transport.New(logDuplex{r: eToG, w: gToE})
	eConn := transport.New(logDuplex{r: gToE, w: eToG})
	weightBits := nn.WeightBits(net, f)

	evalDone := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(srvSeed))
		ots, err := ot.NewExtReceiver(eConn, rng)
		if err != nil {
			evalDone <- err
			return
		}
		otp := precomp.NewReceiverPool(eConn, ots, rng, poolCfg)
		if err := otp.Announce(); err != nil {
			evalDone <- err
			return
		}
		pool := gc.NewPool(1)
		for range xs {
			constLabels, err := eConn.Recv(transport.MsgConstLabels)
			if err != nil {
				evalDone <- err
				return
			}
			e, err := gc.NewBatchEvaluator(1)
			if err != nil {
				evalDone <- err
				return
			}
			var lf, lt gc.Label
			copy(lf[:], constLabels[:gc.LabelSize])
			copy(lt[:], constLabels[gc.LabelSize:])
			e.SetLabel(circuit.WFalse, 0, lf)
			e.SetLabel(circuit.WTrue, 0, lt)
			en := &batchEvalEngine{
				sched:     prog.Schedule,
				e:         e,
				pool:      pool,
				conn:      eConn,
				ots:       otp,
				cfg:       cfg,
				b:         1,
				inputBits: weightBits,
			}
			if err := en.run(); err != nil {
				evalDone <- err
				return
			}
			payload := make([]byte, 0, len(en.outLabels)*gc.LabelSize)
			for _, l := range en.outLabels {
				payload = append(payload, l[:]...)
			}
			if err := eConn.Send(transport.MsgOutputLabels, payload); err != nil {
				evalDone <- err
				return
			}
			if err := eConn.Flush(); err != nil {
				evalDone <- err
				return
			}
		}
		evalDone <- nil
	}()

	rng := rand.New(rand.NewSource(cliSeed))
	ots, err := ot.NewExtSender(gConn, rng)
	if err != nil {
		t.Fatal(err)
	}
	otp := precomp.NewSenderPool(gConn, ots, rng)
	if err := otp.HandleAnnounce(); err != nil {
		t.Fatal(err)
	}
	pool := gc.NewPool(1)
	for _, x := range xs {
		bits := make([]bool, 0, len(x)*f.Bits())
		for _, v := range x {
			bits = append(bits, f.FromFloatSat(v).Bits()...)
		}
		g, err := gc.NewBatchGarbler(rng, 1)
		if err != nil {
			t.Fatal(err)
		}
		constPayload, err := g.AppendConstLabels(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := gConn.Send(transport.MsgConstLabels, constPayload); err != nil {
			t.Fatal(err)
		}
		en := &batchGarbleEngine{
			sched:     prog.Schedule,
			g:         g,
			pool:      pool,
			conn:      gConn,
			ots:       otp,
			cfg:       cfg,
			b:         1,
			inputBits: [][]bool{bits},
			free:      make(chan []byte, 3),
		}
		if err := en.run(); err != nil {
			t.Fatal(err)
		}
		if err := gConn.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := gConn.Recv(transport.MsgOutputLabels); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-evalDone; err != nil {
		t.Fatalf("reference evaluator: %v", err)
	}
	return gToE.bytesWritten(), eToG.bytesWritten()
}

// sessionRun records a full v4 session (Client/Server API) at the given
// pipeline depth over a logging pipe.
func sessionRun(t *testing.T, net *nn.Network, xs [][]float64, poolCfg precomp.PoolConfig, depth int, cliSeed, srvSeed int64) (labels []int, g2e, e2g []byte, srvStats *Stats) {
	t.Helper()
	gToE := newLogHalf()
	eToG := newLogHalf()
	cConn := transport.New(logDuplex{r: eToG, w: gToE})
	sConn := transport.New(logDuplex{r: gToE, w: eToG})
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048, Pipeline: depth}
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(srvSeed)), Engine: cfg, OTPool: poolCfg}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvStats, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(cliSeed)), Engine: cfg}
	labels, _, err := cli.InferMany(cConn, xs)
	wg.Wait()
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	if srvErr != nil {
		t.Fatalf("server: %v", srvErr)
	}
	return labels, gToE.bytesWritten(), eToG.bytesWritten(), srvStats
}

// TestPipelineDepth1Conformance pins the v4 acceptance criterion: at
// depth 1 the session protocol's frame contents are byte-identical to
// the serial v3 path modulo the sub-stream tags. The reference stream is
// regenerated from the raw protocol building blocks (the code path the
// v3 server loop was made of), and the v4 stream is reduced by dropping
// session framing and stripping tags; the two frame sequences must then
// match byte-for-byte in both directions — with the OT pool on and off.
func TestPipelineDepth1Conformance(t *testing.T) {
	net := testNet(t, act.ReLU, 61)
	rng := rand.New(rand.NewSource(62))
	xs := make([][]float64, 3)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	for name, poolCfg := range map[string]precomp.PoolConfig{
		"poolOff": {},
		"poolOn":  {Capacity: 2048, RefillLowWater: 512},
	} {
		t.Run(name, func(t *testing.T) {
			const cliSeed, srvSeed = 8801, 8802
			_, v4G2E, v4E2G, _ := sessionRun(t, net, xs, poolCfg, 1, cliSeed, srvSeed)
			refG2E, refE2G := referenceSerialRun(t, net, xs, poolCfg, cliSeed, srvSeed)

			for _, dir := range []struct {
				name     string
				v4, ref  []byte
				refFirst transport.MsgType
			}{
				{"garbler→evaluator", v4G2E, refG2E, 0},
				{"evaluator→garbler", v4E2G, refE2G, 0},
			} {
				got := stripV4(t, parseFrames(t, dir.v4))
				want := parseFrames(t, dir.ref)
				if len(got) != len(want) {
					t.Fatalf("%s: %d content frames, reference has %d", dir.name, len(got), len(want))
				}
				for i := range got {
					if got[i].typ != want[i].typ {
						t.Fatalf("%s frame %d: type %v, reference %v", dir.name, i, got[i].typ, want[i].typ)
					}
					if !bytes.Equal(got[i].payload, want[i].payload) {
						t.Fatalf("%s frame %d (%v): payload differs from the serial reference (%d vs %d bytes)",
							dir.name, i, got[i].typ, len(got[i].payload), len(want[i].payload))
					}
				}
			}
		})
	}
}

// TestPipelineOverlapConformance is the depth-2 acceptance test: labels
// must match the plaintext reference and the depth-1 run with the OT
// pool on and off, the in-flight window must actually be used (the
// client runs ahead — begin k+1 hits the wire before output k is read),
// and the window invariant MaxInFlight <= depth must hold.
func TestPipelineOverlapConformance(t *testing.T) {
	net := testNet(t, act.ReLU, 63)
	f := fixed.Default
	rng := rand.New(rand.NewSource(64))
	xs := make([][]float64, 5)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
		want[i] = net.PredictFixed(f, xs[i])
	}
	for name, poolCfg := range map[string]precomp.PoolConfig{
		"poolOff": {},
		"poolOn":  {Capacity: 2048, RefillLowWater: 512},
		"tiny":    {Capacity: 64, RefillLowWater: 16},
	} {
		t.Run(name, func(t *testing.T) {
			labels1, _, _, _ := sessionRun(t, net, xs, poolCfg, 1, 9901, 9902)
			labels2, g2e, _, srvStats := sessionRun(t, net, xs, poolCfg, 2, 9903, 9904)
			for i := range xs {
				if labels2[i] != want[i] || labels1[i] != want[i] {
					t.Fatalf("sample %d: depth2=%d depth1=%d plaintext=%d", i, labels2[i], labels1[i], want[i])
				}
			}
			if srvStats.MaxInFlight < 1 || srvStats.MaxInFlight > 2 {
				t.Fatalf("MaxInFlight = %d, want within [1, 2]", srvStats.MaxInFlight)
			}
			// Client run-ahead is deterministic from the send order: with
			// depth 2 every begin after the first must hit the wire before
			// the previous inference's outputs are consumed, i.e. the
			// garbler→evaluator stream interleaves begins mid-window.
			frames := parseFrames(t, g2e)
			begins := 0
			for _, fr := range frames {
				if fr.typ == transport.MsgBatchBegin {
					begins++
				}
			}
			if begins != len(xs) {
				t.Fatalf("%d begin frames for %d inferences", begins, len(xs))
			}
			if srvStats.Inferences != int64(len(xs)) {
				t.Fatalf("server counted %d inferences, want %d", srvStats.Inferences, len(xs))
			}
		})
	}
}

// TestInferAsyncWindow exercises the client-side window mechanics: the
// session garbles ahead up to the window, forcibly settles the oldest
// in-flight inference when full, and keeps results retrievable through
// Wait after Close.
func TestInferAsyncWindow(t *testing.T) {
	net := testNet(t, act.ReLU, 65)
	f := fixed.Default
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(71)), Engine: EngineConfig{Pipeline: 2}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.ServeSession(sConn); err != nil {
			t.Errorf("server: %v", err)
		}
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(72)), Engine: EngineConfig{Pipeline: 2}}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Window() != 2 {
		t.Fatalf("negotiated window %d, want 2", sess.Window())
	}
	rng := rand.New(rand.NewSource(73))
	const k = 4
	ps := make([]*PendingInference, 0, k)
	want := make([]int, 0, k)
	for i := 0; i < k; i++ {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		want = append(want, net.PredictFixed(f, x))
		p, err := sess.InferAsync(x)
		if err != nil {
			t.Fatalf("inference %d: %v", i, err)
		}
		ps = append(ps, p)
		if i >= 2 && !ps[i-2].Done() {
			// The window is 2: garbling inference i forces inference i-2
			// (and older) to settle first.
			t.Fatalf("inference %d still pending after %d entered the window", i-2, i)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		label, st, err := p.Wait()
		if err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		if label != want[i] {
			t.Fatalf("inference %d: label %d, want %d", i, label, want[i])
		}
		if st.Inferences != 1 || st.ANDGates == 0 {
			t.Errorf("inference %d stats not populated: %+v", i, st)
		}
	}
	cs := sess.Stats()
	if cs.Inferences != k {
		t.Fatalf("session stats count %d inferences, want %d", cs.Inferences, k)
	}
	wg.Wait()
}

// TestPipelineWindowRejectsRunahead pins the server-side window
// enforcement: a client that begins more inferences than the announced
// depth permits is cut off with a descriptive protocol error.
func TestPipelineWindowRejectsRunahead(t *testing.T) {
	net := testNet(t, act.ReLU, 66)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(81)), Engine: EngineConfig{Pipeline: 2}}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(82))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	// Bypass the client's own window and run three begins at the server.
	for id := uint64(1); id <= 3; id++ {
		if err := sess.conn.Send(transport.MsgBatchBegin, beginPayload(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.conn.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr == nil || !strings.Contains(srvErr.Error(), "in-flight window") {
		t.Fatalf("server error = %v, want in-flight window rejection", srvErr)
	}
}

// TestPipelineUnknownTagRejected pins tag validation end-to-end: a frame
// for an inference that was never begun is a protocol error.
func TestPipelineUnknownTagRejected(t *testing.T) {
	net := testNet(t, act.ReLU, 67)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(83))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(84))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.conn.SendTagged(transport.MsgBatchTables, 7, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	if err := sess.conn.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr == nil || !strings.Contains(srvErr.Error(), "unknown inference") {
		t.Fatalf("server error = %v, want unknown-inference rejection", srvErr)
	}
}

// TestPipelineDepthNegotiation pins min(client, server) window
// negotiation in both directions.
func TestPipelineDepthNegotiation(t *testing.T) {
	net := testNet(t, act.ReLU, 68)
	for _, tc := range []struct {
		client, server, want int
	}{
		{2, 1, 1},
		{1, 2, 1},
		{4, 2, 2},
		{2, 4, 2},
	} {
		cConn, sConn, closer := transport.Pipe()
		srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(85)), Engine: EngineConfig{Pipeline: tc.server}}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeSession(sConn) //nolint:errcheck — torn down by the pipe close
		}()
		cli := &Client{Rng: rand.New(rand.NewSource(86)), Engine: EngineConfig{Pipeline: tc.client}}
		sess, err := cli.NewSession(cConn)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Window() != tc.want {
			t.Fatalf("client %d / server %d: window %d, want %d", tc.client, tc.server, sess.Window(), tc.want)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		closer.Close()
	}
}

// TestPipelineStatsOverlap sanity-checks the new session counters:
// MaxInFlight respects the window and OverlapTime is only accrued when
// at least two inferences actually coexist.
func TestPipelineStatsOverlap(t *testing.T) {
	net := testNet(t, act.ReLU, 69)
	rng := rand.New(rand.NewSource(87))
	xs := make([][]float64, 4)
	for i := range xs {
		xs[i] = make([]float64, 6)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()*2 - 1
		}
	}
	_, _, _, st1 := sessionRun(t, net, xs, precomp.PoolConfig{}, 1, 9801, 9802)
	if st1.MaxInFlight != 1 {
		t.Fatalf("depth 1 MaxInFlight = %d, want 1", st1.MaxInFlight)
	}
	if st1.OverlapTime != 0 {
		t.Fatalf("depth 1 accrued %v overlap", st1.OverlapTime)
	}
	_, _, _, st2 := sessionRun(t, net, xs, precomp.PoolConfig{}, 2, 9803, 9804)
	if st2.MaxInFlight > 2 {
		t.Fatalf("depth 2 MaxInFlight = %d exceeds the window", st2.MaxInFlight)
	}
	if st2.MaxInFlight < 2 && st2.OverlapTime > 0 {
		t.Fatalf("overlap time %v without overlapped inferences", st2.OverlapTime)
	}
}

// TestPipelineUnsolicitedOTFrameRejected pins the reader's flood
// backstop: OT response frames nobody requested must error the session
// out instead of wedging the demux reader behind a full routing channel
// (which would pin the connection beyond the reach of idle timeouts).
func TestPipelineUnsolicitedOTFrameRejected(t *testing.T) {
	net := testNet(t, act.ReLU, 70)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	srv := &Server{Net: net, Fmt: fixed.Default, Rng: rand.New(rand.NewSource(88))}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = srv.ServeSession(sConn)
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(89))}
	sess, err := cli.NewSession(cConn)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := sess.conn.Send(transport.MsgOTDerandM, []byte("nobody asked")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.conn.Flush(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr == nil || !strings.Contains(srvErr.Error(), "unsolicited") {
		t.Fatalf("server error = %v, want unsolicited-frame rejection", srvErr)
	}
}

// TestPipelineMidOTDisconnectTerminates pins the teardown path where the
// client vanishes while inference 1 holds the OT pool turn mid-exchange
// and inference 2 is gated behind it in Sequencer.Acquire: the turn is
// never Released (a failed exchange deliberately skips it), so unless
// run() aborts the sequencer eagerly on reader death, inference 2 never
// wakes, never emits its event, and ServeSession hangs forever.
func TestPipelineMidOTDisconnectTerminates(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 90)
	cConn, sConn, closer := transport.Pipe()
	defer closer.Close()
	cfg := EngineConfig{Workers: 1, ChunkBytes: 2048, Pipeline: 2}
	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(91)), Engine: cfg}
	done := make(chan error, 1)
	go func() {
		_, err := srv.ServeSession(sConn)
		done <- err
	}()
	cli := &Client{Rng: rand.New(rand.NewSource(92)), Engine: cfg}
	if _, err := cli.NewSession(cConn); err != nil {
		t.Fatalf("open session: %v", err)
	}
	// Hand-craft two inference sub-streams that each walk the server's
	// context exactly to its first evaluator-input step (the same program
	// the server schedules from, so frame sizes line up; label contents
	// are irrelevant — evaluation never starts). Context 1 then sends its
	// OT request and waits for the response; context 2 blocks in
	// Acquire(2) behind the held turn.
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 2; id++ {
		if err := cConn.Send(transport.MsgBatchBegin, beginPayload(id, 1)); err != nil {
			t.Fatal(err)
		}
		if err := cConn.SendTagged(transport.MsgBatchConst, id, make([]byte, 2*gc.LabelSize)); err != nil {
			t.Fatal(err)
		}
	walk:
		for i := range prog.Schedule.Steps {
			st := &prog.Schedule.Steps[i]
			switch {
			case st.Kind == circuit.StepInputs && st.Party == circuit.Garbler:
				if err := cConn.SendTagged(transport.MsgBatchInputs, id, make([]byte, len(st.Wires)*gc.LabelSize)); err != nil {
					t.Fatal(err)
				}
			case st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator:
				break walk
			default:
				t.Fatalf("test net schedules step %d (%v) before the first evaluator-input step", i, st.Kind)
			}
		}
	}
	if err := cConn.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until inference 1's OT request is on the wire — its context
	// now holds the pool turn — then disconnect without answering.
	for {
		typ, _, err := cConn.ReadFrame()
		if err != nil {
			t.Fatalf("reading server frames: %v", err)
		}
		if typ == transport.MsgOTDerandC || typ == transport.MsgOTExtU || typ == transport.MsgOTRefill {
			break
		}
	}
	closer.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("mid-inference disconnect should surface as a session error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ServeSession still blocked 30s after a mid-OT disconnect")
	}
	checkLeaks()
}
