package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// TestAppendTagNoAlloc pins the tagged-send hot path: appending the
// uvarint tag(s) of a begin frame into a pre-sized session scratch
// buffer (what Session.InferAsync / InferBatchAsync and the server's
// pipeline announcement do) must not allocate — AppendTag into a
// nil/undersized dst reallocates the frame buffer on every send.
func TestAppendTagNoAlloc(t *testing.T) {
	scratch := make([]byte, 0, 2*binary.MaxVarintLen64)
	if allocs := testing.AllocsPerRun(200, func() {
		// A batch begin is the worst case: two uvarints (id ++ B).
		scratch = AppendTag(AppendTag(scratch[:0], 1<<40), 16)
	}); allocs != 0 {
		t.Fatalf("AppendTag into a pre-sized scratch allocated %.1f times per run, want 0", allocs)
	}
	if id, rest, err := SplitTag(scratch); err != nil || id != 1<<40 {
		t.Fatalf("scratch round trip: id=%d err=%v", id, err)
	} else if b, n := binary.Uvarint(rest); n != len(rest) || b != 16 {
		t.Fatalf("scratch round trip: batch=%d", b)
	}
}

func TestTaggedFrameRoundTrip(t *testing.T) {
	a, b, closer := Pipe()
	defer closer.Close()
	payload := []byte("garbled tables go here")
	if err := a.SendTagged(MsgBatchTables, 300, payload); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	typ, raw, err := b.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgBatchTables {
		t.Fatalf("type = %v, want %v", typ, MsgBatchTables)
	}
	id, content, err := SplitTag(raw)
	if err != nil {
		t.Fatal(err)
	}
	if id != 300 || !bytes.Equal(content, payload) {
		t.Fatalf("tag round trip: id=%d content=%q", id, content)
	}
	// SendTagged must cost exactly the uvarint on top of the payload.
	if want := int64(5 + 2 + len(payload)); a.BytesSent.Load() != want {
		t.Errorf("tagged frame used %d bytes, want %d", a.BytesSent.Load(), want)
	}
}

func TestSplitTagRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"truncated-uvarint", []byte{0x80}},
		{"truncated-uvarint-long", []byte{0xff, 0xff, 0xff}},
		{"overflow-uvarint", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := SplitTag(tc.payload); err == nil {
				t.Errorf("SplitTag(%v) accepted a malformed tag", tc.payload)
			} else if !strings.Contains(err.Error(), "inference tag") {
				t.Errorf("error should name the inference tag, got %v", err)
			}
		})
	}
}

// TestWindowValidation is the table-driven decoder coverage for the v4
// in-flight window: unknown, duplicate, and out-of-window inference tags
// must be rejected with descriptive errors.
func TestWindowValidation(t *testing.T) {
	type op struct {
		kind    string // begin | check | close
		id      uint64
		wantErr string // substring; empty = must succeed
	}
	cases := []struct {
		name  string
		depth int
		ops   []op
	}{
		{"serial begin-close cycles", 1, []op{
			{"begin", 1, ""}, {"check", 1, ""}, {"close", 1, ""},
			{"begin", 2, ""}, {"check", 2, ""}, {"close", 2, ""},
		}},
		{"overlap within depth", 2, []op{
			{"begin", 1, ""}, {"begin", 2, ""},
			{"check", 1, ""}, {"check", 2, ""},
			{"close", 1, ""}, {"begin", 3, ""},
		}},
		{"duplicate begin", 2, []op{
			{"begin", 1, ""}, {"begin", 1, "duplicate inference id 1"},
		}},
		{"replayed closed id", 2, []op{
			{"begin", 1, ""}, {"close", 1, ""}, {"begin", 1, "duplicate inference id 1"},
		}},
		{"skip-ahead id", 2, []op{
			{"begin", 1, ""}, {"begin", 3, "skips ahead"},
		}},
		{"begin past the window", 2, []op{
			{"begin", 1, ""}, {"begin", 2, ""},
			{"begin", 3, "exceeds the in-flight window (depth 2)"},
		}},
		{"frame for unbegun inference", 2, []op{
			{"begin", 1, ""}, {"check", 2, "unknown inference 2"},
		}},
		{"frame for closed inference", 2, []op{
			{"begin", 1, ""}, {"close", 1, ""}, {"check", 1, "closed inference 1"},
		}},
		{"close of unopened inference", 2, []op{
			{"close", 1, "not in flight"},
		}},
		{"depth clamps to 1", 0, []op{
			{"begin", 1, ""}, {"begin", 2, "exceeds the in-flight window (depth 1)"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWindow(tc.depth)
			for i, o := range tc.ops {
				var err error
				switch o.kind {
				case "begin":
					err = w.Begin(o.id)
				case "check":
					err = w.Check(o.id)
				case "close":
					err = w.Close(o.id)
				}
				if o.wantErr == "" {
					if err != nil {
						t.Fatalf("op %d %s(%d): unexpected error %v", i, o.kind, o.id, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), o.wantErr) {
					t.Fatalf("op %d %s(%d): error %v, want substring %q", i, o.kind, o.id, err, o.wantErr)
				}
			}
		})
	}
}

func TestWindowInFlight(t *testing.T) {
	w := NewWindow(3)
	if w.Depth() != 3 || w.InFlight() != 0 {
		t.Fatalf("fresh window: depth=%d inflight=%d", w.Depth(), w.InFlight())
	}
	for id := uint64(1); id <= 3; id++ {
		if err := w.Begin(id); err != nil {
			t.Fatal(err)
		}
	}
	if w.InFlight() != 3 {
		t.Fatalf("inflight = %d, want 3", w.InFlight())
	}
	if err := w.Close(2); err != nil {
		t.Fatal(err)
	}
	if w.InFlight() != 2 {
		t.Fatalf("inflight = %d, want 2", w.InFlight())
	}
}

// FuzzSplitTag fuzzes the v4 tag decoder: no input may panic, and every
// accepted payload must decode consistently after re-encoding.
func FuzzSplitTag(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x80})
	f.Add(AppendTag(nil, 1))
	f.Add(append(AppendTag(nil, 1<<40), []byte("payload")...))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02})
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, content, err := SplitTag(payload)
		if err != nil {
			return
		}
		// Accepted tags must survive a canonical re-encode: the
		// re-framed payload decodes to the same id and content.
		re := append(AppendTag(nil, id), content...)
		id2, content2, err := SplitTag(re)
		if err != nil {
			t.Fatalf("re-encoded tag rejected: %v", err)
		}
		if id2 != id || !bytes.Equal(content2, content) {
			t.Fatalf("re-encode drift: (%d, %q) vs (%d, %q)", id, content, id2, content2)
		}
		// And a tagged frame carrying it must round-trip the wire.
		var buf bytes.Buffer
		c := New(readWriter{&buf, io.Discard})
		cw := New(readWriter{bytes.NewReader(nil), &buf})
		if err := cw.SendTagged(MsgBatchTables, id, content); err != nil {
			return // oversized fuzz payloads may exceed MaxFrame
		}
		if err := cw.Flush(); err != nil {
			t.Fatal(err)
		}
		typ, raw, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("framed tagged payload unreadable: %v", err)
		}
		id3, content3, err := SplitTag(raw)
		if typ != MsgBatchTables || err != nil || id3 != id || !bytes.Equal(content3, content) {
			t.Fatalf("wire round trip drift: typ=%v err=%v id=%d", typ, err, id3)
		}
	})
}
