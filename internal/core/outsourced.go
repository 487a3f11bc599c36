package core

import (
	"fmt"
	"io"
	"time"

	"deepsecure/internal/gc"
	"deepsecure/internal/netgen"
	"deepsecure/internal/nn"
	"deepsecure/internal/ot"
	"deepsecure/internal/ot/precomp"
	"deepsecure/internal/outsource"
	"deepsecure/internal/transport"
)

// The outsourced deployment (§3.3, Fig. 4) involves three parties:
//
//	client ── share s ──▶ proxy  (garbler)
//	client ── share x⊕s ─▶ server (evaluator, owns the model)
//	proxy ◀── GC protocol ──▶ server
//	proxy ── decode bits ─▶ client ◀── output-label LSBs ── server
//
// The circuit's first layer XORs the two shares (free under Free-XOR), so
// neither server ever sees x. The output decode map stays at the proxy and
// the output labels at the main server; each forwards only its half (the
// point-and-permute bit vector) to the client, who XORs them — so neither
// server learns the inference result either.
//
// Between the proxy and the server this is one garbled execution of the
// compiled outsourced program (netgen.Options{Outsourced: true}) on the
// session engines at one sample: after the hello and architecture, the
// OT-extension base phase and the server's in-band pool announcement
// (always "off": the evaluator's inputs go by direct IKNP), then the
// const labels, input labels, OT exchanges and table stream the engines
// produce. The server evaluates with Server.Engine's worker settings and
// the proxy garbles with the default EngineConfig. Neither caches the
// program: each run compiles it.

// InferOutsourced runs a secure inference as the constrained client: it
// only generates a random pad, XORs once, and receives two short bit
// vectors (the paper's "almost free of charge" client workload).
func (c *Client) InferOutsourced(proxyConn, serverConn *transport.Conn, x []float64) (int, *Stats, error) {
	start := time.Now()
	rng := rngOrDefault(c.Rng)
	if err := proxyConn.Send(transport.MsgHello, []byte(protocolHello)); err != nil {
		return 0, nil, err
	}
	specData, err := proxyConn.Recv(transport.MsgArch)
	if err != nil {
		return 0, nil, err
	}
	spec, err := nn.UnmarshalSpec(specData)
	if err != nil {
		return 0, nil, err
	}
	f := spec.Format

	bits := make([]bool, 0, len(x)*f.Bits())
	for _, v := range x {
		bits = append(bits, f.FromFloatSat(v).Bits()...)
	}
	s, tt, err := outsource.Split(bits, rng)
	if err != nil {
		return 0, nil, err
	}
	if err := proxyConn.Send(transport.MsgShare, outsource.PackBits(s)); err != nil {
		return 0, nil, err
	}
	if err := proxyConn.Flush(); err != nil {
		return 0, nil, err
	}
	if err := serverConn.Send(transport.MsgShare, outsource.PackBits(tt)); err != nil {
		return 0, nil, err
	}
	if err := serverConn.Flush(); err != nil {
		return 0, nil, err
	}

	// Merge the two decode halves.
	decPayload, err := proxyConn.Recv(transport.MsgResult)
	if err != nil {
		return 0, nil, err
	}
	lsbPayload, err := serverConn.Recv(transport.MsgOutputLabels)
	if err != nil {
		return 0, nil, err
	}
	if len(decPayload) != len(lsbPayload) {
		return 0, nil, fmt.Errorf("core: decode halves disagree: %d vs %d bytes", len(decPayload), len(lsbPayload))
	}
	nBits := len(decPayload) * 8
	dec, err := outsource.UnpackBits(decPayload, nBits)
	if err != nil {
		return 0, nil, err
	}
	lsb, err := outsource.UnpackBits(lsbPayload, nBits)
	if err != nil {
		return 0, nil, err
	}
	label := 0
	for i := range dec {
		if dec[i] != lsb[i] {
			label |= 1 << uint(i)
		}
	}
	st := &Stats{
		BytesSent:     proxyConn.BytesSent.Load() + serverConn.BytesSent.Load(),
		BytesReceived: proxyConn.BytesReceived.Load() + serverConn.BytesReceived.Load(),
		Duration:      time.Since(start),
	}
	return label, st, nil
}

// Proxy is the untrusted-but-non-colluding garbling service of §3.3 ("a
// simple personal computer connected to the Internet").
type Proxy struct {
	// Rng sources protocol randomness (crypto/rand when nil).
	Rng io.Reader
}

// Run serves one outsourced inference: handshake with the client, garble
// against the main server, forward the decode map half to the client.
func (p *Proxy) Run(clientConn, serverConn *transport.Conn) error {
	rng := rngOrDefault(p.Rng)
	hello, err := clientConn.Recv(transport.MsgHello)
	if err != nil {
		return err
	}
	if string(hello) != protocolHello {
		return fmt.Errorf("core: unknown protocol %q", hello)
	}
	// Fetch the public spec from the model owner and relay it.
	if err := serverConn.Send(transport.MsgHello, []byte(protocolHello)); err != nil {
		return err
	}
	specData, err := serverConn.Recv(transport.MsgArch)
	if err != nil {
		return err
	}
	if err := clientConn.Send(transport.MsgArch, specData); err != nil {
		return err
	}
	spec, err := nn.UnmarshalSpec(specData)
	if err != nil {
		return err
	}
	net, err := spec.Build()
	if err != nil {
		return err
	}
	f := spec.Format

	sharePayload, err := clientConn.Recv(transport.MsgShare)
	if err != nil {
		return err
	}
	share, err := outsource.UnpackBits(sharePayload, net.In.Len()*f.Bits())
	if err != nil {
		return err
	}

	prog, err := netgen.Compile(net, f, netgen.Options{Outsourced: true})
	if err != nil {
		return err
	}
	ots, err := ot.NewExtSender(serverConn, rng)
	if err != nil {
		return err
	}
	otp := precomp.NewSenderPool(serverConn, ots, rng)
	if err := otp.HandleAnnounce(); err != nil {
		return err
	}
	g, _, err := sendConstLabels(serverConn, rng, 1, nil)
	if err != nil {
		return err
	}
	var cfg EngineConfig
	en := &batchGarbleEngine{
		sched:     prog.Schedule,
		g:         g,
		pool:      cfg.newPool(),
		conn:      serverConn,
		ots:       otp,
		cfg:       cfg,
		b:         1,
		inputBits: [][]bool{share},
		free:      make(chan []byte, 3),
	}
	if err := en.run(); err != nil {
		return err
	}
	if err := serverConn.Flush(); err != nil {
		return err
	}

	// Send the decode half to the client; the proxy never sees the
	// evaluator's output labels, so it learns nothing about the result.
	if err := clientConn.Send(transport.MsgResult, packLSBs(en.outZero)); err != nil {
		return err
	}
	return clientConn.Flush()
}

// ServeOutsourced is the main server's side of the outsourced deployment:
// it evaluates with its weights plus the client's x⊕s share, and forwards
// the output-label LSB half to the client.
func (s *Server) ServeOutsourced(proxyConn, clientConn *transport.Conn) error {
	rng := rngOrDefault(s.Rng)
	hello, err := proxyConn.Recv(transport.MsgHello)
	if err != nil {
		return err
	}
	if string(hello) != protocolHello {
		return fmt.Errorf("core: unknown protocol %q", hello)
	}
	spec, err := s.Net.Spec(s.Fmt).Marshal()
	if err != nil {
		return err
	}
	if err := proxyConn.Send(transport.MsgArch, spec); err != nil {
		return err
	}
	if err := proxyConn.Flush(); err != nil {
		return err
	}

	sharePayload, err := clientConn.Recv(transport.MsgShare)
	if err != nil {
		return err
	}
	share, err := outsource.UnpackBits(sharePayload, s.Net.In.Len()*s.Fmt.Bits())
	if err != nil {
		return err
	}
	inputBits := append(share, nn.WeightBits(s.Net, s.Fmt)...)

	prog, err := netgen.Compile(s.Net, s.Fmt, netgen.Options{Outsourced: true})
	if err != nil {
		return err
	}
	ots, err := ot.NewExtReceiver(proxyConn, rng)
	if err != nil {
		return err
	}
	otp := precomp.NewReceiverPool(proxyConn, ots, rng, precomp.PoolConfig{})
	if err := otp.Announce(); err != nil {
		return err
	}
	e, err := recvBatchEvaluator(proxyConn, 1)
	if err != nil {
		return err
	}
	en := &batchEvalEngine{
		sched:     prog.Schedule,
		e:         e,
		pool:      s.Engine.newPool(),
		conn:      proxyConn,
		ots:       otp,
		cfg:       s.Engine,
		b:         1,
		inputBits: inputBits,
	}
	if err := en.run(); err != nil {
		return err
	}

	if err := clientConn.Send(transport.MsgOutputLabels, packLSBs(en.outLabels)); err != nil {
		return err
	}
	return clientConn.Flush()
}

// packLSBs packs the point-and-permute bit of each label: from the
// output zero-labels it is the proxy's decode map (§2.2.2 step iv), from
// the evaluated output labels the server's half; the client XORs the two.
func packLSBs(ls []gc.Label) []byte {
	bits := make([]bool, len(ls))
	for i, l := range ls {
		bits[i] = l.LSB()
	}
	return outsource.PackBits(bits)
}
