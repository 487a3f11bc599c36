package core

import (
	"fmt"
	"math/rand"
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
	"deepsecure/internal/outsource"
	"deepsecure/internal/testutil"
	"deepsecure/internal/transport"
)

// outsourcedModels are the §3.3 test models: a dense ReLU net, a conv
// net, and the dense net with a third of its first layer's weights
// pruned.
func outsourcedModels(t *testing.T) map[string]*nn.Network {
	t.Helper()
	conv, err := nn.NewNetwork(nn.Shape{C: 1, H: 6, W: 6},
		nn.NewConv2D(2, 3, 1, 0),
		nn.NewActivation(act.ReLU),
		nn.NewMaxPool2D(2, 0),
		nn.NewDense(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	conv.InitWeights(rand.New(rand.NewSource(11)))
	pruned := testNet(t, act.ReLU, 9)
	d := pruned.Layers[0].(*nn.Dense)
	for i := 0; i < len(d.Mask); i += 3 {
		d.Mask[i] = false
	}
	return map[string]*nn.Network{
		"dense-relu": testNet(t, act.ReLU, 6),
		"conv":       conv,
		"pruned":     pruned,
	}
}

// TestOutsourcedInference runs the three-party deployment (client, proxy,
// server over separate pipes) for every test model at one and four
// server workers. The label must equal the plaintext fixed-point pass,
// the constrained client must move under 1000 bytes each way (shares
// out, two bit vectors in), and the proxy must stream at least the
// compiled program's garbled tables to the server.
func TestOutsourcedInference(t *testing.T) {
	f := fixed.Default
	for name, net := range outsourcedModels(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				prog, err := netgen.Compile(net, f, netgen.Options{Outsourced: true})
				if err != nil {
					t.Fatal(err)
				}
				cpConn, pcConn, closer1 := transport.Pipe() // client ↔ proxy
				defer closer1.Close()
				csConn, scConn, closer2 := transport.Pipe() // client ↔ server
				defer closer2.Close()
				psConn, spConn, closer3 := transport.Pipe() // proxy ↔ server
				defer closer3.Close()

				srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(201)), Engine: EngineConfig{Workers: workers}}
				prx := &Proxy{Rng: rand.New(rand.NewSource(202))}
				var wg sync.WaitGroup
				var srvErr, prxErr error
				wg.Add(2)
				go func() {
					defer wg.Done()
					srvErr = srv.ServeOutsourced(spConn, scConn)
				}()
				go func() {
					defer wg.Done()
					prxErr = prx.Run(pcConn, psConn)
				}()

				rng := rand.New(rand.NewSource(7))
				x := make([]float64, net.In.Len())
				for i := range x {
					x[i] = rng.Float64()*2 - 1
				}
				cli := &Client{Rng: rand.New(rand.NewSource(203))}
				label, st, err := cli.InferOutsourced(cpConn, csConn, x)
				wg.Wait()
				if srvErr != nil {
					t.Fatalf("server: %v", srvErr)
				}
				if prxErr != nil {
					t.Fatalf("proxy: %v", prxErr)
				}
				if err != nil {
					t.Fatalf("client: %v", err)
				}
				if want := net.PredictFixed(f, x); label != want {
					t.Fatalf("outsourced label %d, want %d", label, want)
				}
				if st.BytesSent >= 1000 || st.BytesReceived >= 1000 {
					t.Errorf("outsourced client traffic too high: %d bytes out, %d in", st.BytesSent, st.BytesReceived)
				}
				if got, min := psConn.BytesSent.Load(), prog.Schedule.ANDs*gc.TableSize; got < min {
					t.Errorf("proxy sent %d bytes to the server, fewer than the %d bytes of garbled tables", got, min)
				}
			})
		}
	}
}

// TestServeOutsourcedCutTableStream drives ServeOutsourced with a
// hand-built proxy that sends the const labels, completes the input
// labels and OT exchanges, then cuts the table stream short and hangs
// up. The server must return an error within 10 s and leave no
// goroutine behind.
func TestServeOutsourcedCutTableStream(t *testing.T) {
	checkLeaks := testutil.VerifyNoLeaks(t)
	f := fixed.Default
	net := testNet(t, act.ReLU, 6)
	prog, err := netgen.Compile(net, f, netgen.Options{Outsourced: true})
	if err != nil {
		t.Fatal(err)
	}
	csConn, scConn, closer2 := transport.Pipe() // client ↔ server
	defer closer2.Close()
	psConn, spConn, closer3 := transport.Pipe() // proxy ↔ server
	defer closer3.Close()

	srv := &Server{Net: net, Fmt: f, Rng: rand.New(rand.NewSource(211)), Engine: EngineConfig{Workers: 4}}
	done := make(chan error, 1)
	go func() { done <- srv.ServeOutsourced(spConn, scConn) }()

	// The client's half: the server's XOR share (contents irrelevant).
	share := make([]bool, net.In.Len()*f.Bits())
	if err := csConn.Send(transport.MsgShare, outsource.PackBits(share)); err != nil {
		t.Fatal(err)
	}
	if err := csConn.Flush(); err != nil {
		t.Fatal(err)
	}

	prxDone := make(chan error, 1)
	go func() {
		prxDone <- func() error {
			rng := rand.New(rand.NewSource(212))
			if err := psConn.Send(transport.MsgHello, []byte(protocolHello)); err != nil {
				return err
			}
			if _, err := psConn.Recv(transport.MsgArch); err != nil {
				return err
			}
			ots, err := ot.NewExtSender(psConn, rng)
			if err != nil {
				return err
			}
			otp := precomp.NewSenderPool(psConn, ots, rng)
			if err := otp.HandleAnnounce(); err != nil {
				return err
			}
			if err := psConn.Send(transport.MsgConstLabels, make([]byte, 2*gc.LabelSize)); err != nil {
				return err
			}
			for i := range prog.Schedule.Steps {
				st := &prog.Schedule.Steps[i]
				switch {
				case st.Kind == circuit.StepInputs && st.Party == circuit.Garbler:
					if err := psConn.Send(transport.MsgInputLabels, make([]byte, len(st.Wires)*gc.LabelSize)); err != nil {
						return err
					}
				case st.Kind == circuit.StepInputs && st.Party == circuit.Evaluator:
					if err := otp.Send(make([][2]ot.Msg, len(st.Wires))); err != nil {
						return err
					}
				case st.Kind == circuit.StepLevels && st.TableBytes > 0:
					psConn.Send(transport.MsgTables, make([]byte, st.TableBytes/2)) //nolint:errcheck — the pipe is closed next
					psConn.Flush()                                                  //nolint:errcheck
					return closer3.Close()
				}
			}
			return fmt.Errorf("schedule has no table-carrying level run")
		}()
	}()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ServeOutsourced accepted a cut table stream")
		}
		t.Logf("server: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("ServeOutsourced still running 10s after the proxy cut the table stream")
	}
	if err := <-prxDone; err != nil {
		t.Fatalf("hand-built proxy: %v", err)
	}
	closer2.Close()
	closer3.Close()
	checkLeaks()
}
