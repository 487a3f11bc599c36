package transport

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()

	if err := a.Send(MsgHello, []byte("hi there")); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(MsgHello)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi there" {
		t.Errorf("payload = %q", got)
	}
	// And the reverse direction.
	if err := b.Send(MsgResult, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = a.Recv(MsgResult)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("payload = %v", got)
	}
}

func TestTypeMismatchIsError(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	if err := a.Send(MsgTables, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(MsgInputLabels); err == nil || !strings.Contains(err.Error(), "desync") {
		t.Errorf("type mismatch should report desync, got %v", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	if err := a.Send(MsgHello, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(MsgHello)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("payload = %v, want empty", got)
	}
}

func TestManyFramesBatched(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(MsgTables, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := b.Recv(MsgTables)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("frame %d out of order: %v", i, got)
		}
	}
}

func TestTruncatedStreamErrors(t *testing.T) {
	var buf bytes.Buffer
	w := New(&buf)
	if err := w.Send(MsgTables, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the stream mid-payload.
	trunc := buf.Bytes()[:20]
	r := New(readWriter{bytes.NewReader(trunc), io.Discard})
	if _, err := r.Recv(MsgTables); err == nil {
		t.Error("truncated payload must error")
	}
	// Chop mid-header.
	r2 := New(readWriter{bytes.NewReader(buf.Bytes()[:3]), io.Discard})
	if _, err := r2.Recv(MsgTables); err == nil {
		t.Error("truncated header must error")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	// A corrupted header advertising a giant length must be refused.
	hdr := []byte{byte(MsgTables), 0xff, 0xff, 0xff, 0xff}
	r := New(readWriter{bytes.NewReader(hdr), io.Discard})
	if _, err := r.Recv(MsgTables); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized frame should be rejected, got %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	payload := make([]byte, 1000)
	if err := a.Send(MsgTables, payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(MsgTables); err != nil {
		t.Fatal(err)
	}
	if a.BytesSent.Load() != 1005 {
		t.Errorf("BytesSent = %d, want 1005", a.BytesSent.Load())
	}
	if b.BytesReceived.Load() != 1005 {
		t.Errorf("BytesReceived = %d, want 1005", b.BytesReceived.Load())
	}
}

func TestConcurrentPartiesOverPipe(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := a.Send(MsgTables, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			if _, err := a.Recv(MsgResult); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := b.Recv(MsgTables); err != nil {
				t.Error(err)
				return
			}
			if err := b.Send(MsgResult, []byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		// The final response is still in the write buffer: without this
		// flush the peer's last Recv would block forever.
		if err := b.Flush(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
}

func TestClosedPipeEOF(t *testing.T) {
	a, b, closer := Pipe()
	closer.Close()
	if _, err := b.Recv(MsgHello); err == nil {
		t.Error("recv on closed pipe should error")
	}
	if err := a.Send(MsgHello, []byte("x")); err == nil {
		if err := a.Flush(); err == nil {
			t.Error("flush on closed pipe should error")
		}
	}
}

func TestRecvAny(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	for _, typ := range []MsgType{MsgArch, MsgBusy} {
		if err := a.Send(typ, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := b.RecvAny(MsgArch, MsgBusy)
	if err != nil {
		t.Fatal(err)
	}
	if got != MsgArch {
		t.Fatalf("got %v, want %v", got, MsgArch)
	}
	got, _, err = b.RecvAny(MsgArch, MsgBusy)
	if err != nil {
		t.Fatal(err)
	}
	if got != MsgBusy {
		t.Fatalf("got %v, want %v", got, MsgBusy)
	}
}

func TestRecvAnyMismatch(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	if err := a.Send(MsgTables, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err := b.RecvAny(MsgArch, MsgBusy)
	if err == nil || !strings.Contains(err.Error(), "desync") {
		t.Errorf("mismatch should report desync naming both types, got %v", err)
	}
	if err != nil && !strings.Contains(err.Error(), "arch|busy") {
		t.Errorf("error should name the accepted set, got %v", err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgTables.String() != "tables" || MsgOTExtU.String() != "ot-ext-u" {
		t.Error("names wrong")
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type should render")
	}
	// Every defined frame type must have a real name: a "msg(n)"
	// fallback here means a new constant was added without extending the
	// package-level name table. MsgTypeCount tracks the constant block,
	// so this loop covers new types automatically.
	for m := MsgHello; int(m) <= MsgTypeCount; m++ {
		if s := m.String(); strings.HasPrefix(s, "msg(") {
			t.Errorf("frame type %d has no name", uint8(m))
		}
	}
	for m, want := range map[MsgType]string{
		MsgOTRefill:     "ot-refill",
		MsgOTDerandC:    "ot-derand-c",
		MsgOTDerandM:    "ot-derand-m",
		MsgPipeline:     "pipeline",
		MsgBatchBegin:   "batch-begin",
		MsgBatchTables:  "batch-tables",
		MsgBatchOutputs: "batch-outputs",
	} {
		if got := m.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", uint8(m), got, want)
		}
	}
}

type readWriter struct {
	io.Reader
	io.Writer
}
