package core

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"deepsecure/internal/act"
	"deepsecure/internal/circuit"
	"deepsecure/internal/fixed"
	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/obs"
	"deepsecure/internal/ot"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// TestServerRejectsMalformedFrames drives the server's evaluation engine
// with hand-built sub-streams — a single inference (a MsgBatchBegin of
// one) and a B=2 batch — that go wrong in one place each: a const
// frame of the wrong length, an input-label frame of the wrong length, a
// table frame that overruns its level run, and a stream cut before the
// run is complete. Every case must end the session with an error (not a
// recovered panic) within 10 s and leave no goroutine behind.
func TestServerRejectsMalformedFrames(t *testing.T) {
	f := fixed.Default
	net := testNet(t, act.ReLU, 96)
	prog, err := netgen.Compile(net, f, netgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := prog.Schedule

	type fault int
	const (
		badConst fault = iota
		badInputs
		overrun
		cut
	)
	kinds := []struct {
		name string
		b    int
	}{
		{"infer", 1},
		{"batch2", 2},
	}
	cases := []struct {
		name  string
		fault fault
		want  string // substring of the server's error; "" accepts any
	}{
		{"const-length", badConst, "const-label frame has"},
		{"input-length", badInputs, "input-label frame has"},
		{"table-overrun", overrun, "overrun"},
		{"cut-mid-run", cut, ""},
	}
	for _, k := range kinds {
		for _, tc := range cases {
			t.Run(k.name+"/"+tc.name, func(t *testing.T) {
				checkLeaks := testutil.VerifyNoLeaks(t)
				panics0 := obs.PanicCount()
				cConn, sConn, closer := transport.Pipe()
				defer closer.Close()
				cfg := EngineConfig{Workers: 1, ChunkBytes: 2048}
				srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(97)), Engine: cfg}
				done := make(chan error, 1)
				go func() {
					_, err := srv.ServeSession(sConn)
					done <- err
				}()
				cli := &Client{Rng: rand.New(rand.NewSource(98)), Engine: cfg}
				sess, err := cli.NewSession(cConn)
				if err != nil {
					t.Fatal(err)
				}

				// The hand-built garbler runs on its own goroutine: once
				// the server gives up, its sends may never be drained.
				const id = 1
				rng := rand.New(rand.NewSource(99))
				cliDone := make(chan struct{})
				go func() {
					defer close(cliDone)
					send := func(typ transport.MsgType, payload []byte) bool {
						if typ == transport.MsgBatchBegin {
							return cConn.Send(typ, payload) == nil
						}
						return cConn.SendTagged(typ, id, payload) == nil
					}
					if !send(transport.MsgBatchBegin, beginPayload(id, k.b)) {
						return
					}
					constLen := 2 * k.b * gc.LabelSize
					if tc.fault == badConst {
						constLen += gc.LabelSize
					}
					if !send(transport.MsgBatchConst, make([]byte, constLen)) {
						return
					}
				walk:
					for i := range sched.Steps {
						st := &sched.Steps[i]
						switch {
						case st.Kind == circuit.StepInputs && st.Party == circuit.Garbler:
							n := len(st.Wires) * k.b * gc.LabelSize
							if tc.fault == badInputs {
								n -= gc.LabelSize
							}
							if !send(transport.MsgBatchInputs, make([]byte, n)) {
								return
							}
							if tc.fault == badInputs {
								break walk
							}
						case st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator:
							// A well-formed OT exchange with junk label pairs:
							// the engine's checks under test come later.
							pairs := make([][2]ot.Msg, len(st.Wires)*k.b)
							for j := range pairs {
								rng.Read(pairs[j][0][:])
								rng.Read(pairs[j][1][:])
							}
							if sess.ots.Send(pairs) != nil {
								return
							}
						case st.Kind == circuit.StepLevels && st.TableBytes > 0:
							run := st.TableBytes * k.b
							switch tc.fault {
							case overrun:
								send(transport.MsgBatchTables, make([]byte, run+gc.TableSize))
							case cut:
								send(transport.MsgBatchTables, make([]byte, run/2))
								cConn.Flush() //nolint:errcheck — the pipe is closed next
								closer.Close()
								return
							}
							break walk
						}
					}
					cConn.Flush() //nolint:errcheck — the server may already be gone
				}()

				select {
				case err := <-done:
					if err == nil {
						t.Fatal("server accepted a malformed sub-stream")
					}
					if strings.Contains(err.Error(), "recovered panic") {
						t.Fatalf("server panicked: %v", err)
					}
					if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("server error %q, want it to mention %q", err, tc.want)
					}
					t.Logf("server: %v", err)
				case <-time.After(10 * time.Second):
					t.Fatal("server still serving 10s after a malformed sub-stream")
				}
				closer.Close()
				<-cliDone
				if n := obs.PanicCount() - panics0; n != 0 {
					t.Fatalf("%d panic(s) recovered while rejecting the sub-stream", n)
				}
				checkLeaks()
			})
		}
	}
}
