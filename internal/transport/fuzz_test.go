package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// rw adapts a raw byte stream (plus a write sink) to the io.ReadWriter
// a Conn wraps — the corruption tests feed ReadFrame hand-built bytes.
type rw struct {
	io.Reader
	io.Writer
}

func rawConn(stream []byte) *Conn {
	return New(rw{bytes.NewReader(stream), io.Discard})
}

// frame hand-encodes one wire frame: 1 type byte, 4-byte little-endian
// length, payload — independent of Send, so these tests keep pinning
// the wire format itself.
func frame(t MsgType, payload []byte) []byte {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	return append(hdr[:], payload...)
}

// TestReadFrameCorruptionClasses pins the exact error per corruption
// class: every way a stream can be cut or mangled maps to a descriptive,
// stable error — the contract the chaos sweep's "clean error" oracle and
// operators' logs both lean on.
func TestReadFrameCorruptionClasses(t *testing.T) {
	hello := frame(MsgHello, []byte("deepsecure"))
	oversized := frame(MsgTables, nil)
	binary.LittleEndian.PutUint32(oversized[1:], MaxFrame+1)

	cases := []struct {
		name    string
		stream  []byte
		wantErr string // exact error string
		wantIs  error  // errors.Is target, nil to skip
	}{
		{
			name:    "clean EOF before any frame",
			stream:  nil,
			wantErr: "transport: read header: EOF",
			wantIs:  io.EOF,
		},
		{
			name:    "header truncated mid-way",
			stream:  hello[:3],
			wantErr: "transport: read header: unexpected EOF",
			wantIs:  io.ErrUnexpectedEOF,
		},
		{
			name:    "length field exceeds the frame limit",
			stream:  oversized,
			wantErr: "transport: frame length 1073741825 exceeds limit",
		},
		{
			name:    "payload cut mid-way",
			stream:  hello[:len(hello)-4],
			wantErr: "transport: read hello payload: unexpected EOF",
			wantIs:  io.ErrUnexpectedEOF,
		},
		{
			name:    "payload missing entirely",
			stream:  hello[:5],
			wantErr: "transport: read hello payload: EOF",
			wantIs:  io.EOF,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := rawConn(tc.stream).ReadFrame()
			if err == nil {
				t.Fatal("ReadFrame succeeded on a corrupted stream")
			}
			if err.Error() != tc.wantErr {
				t.Errorf("err = %q, want %q", err, tc.wantErr)
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Errorf("errors.Is(err, %v) = false: %v", tc.wantIs, err)
			}
		})
	}
}

// A tagged frame whose payload is a truncated uvarint survives ReadFrame
// (framing is intact) and fails at SplitTag with the tag-specific error.
func TestReadFrameTruncatedTag(t *testing.T) {
	// 0x80 starts a multi-byte uvarint that never completes.
	typ, payload, err := rawConn(frame(MsgBatchTables, []byte{0x80})).ReadFrame()
	if err != nil || typ != MsgBatchTables {
		t.Fatalf("ReadFrame = %v, %v; framing itself is fine", typ, err)
	}
	if _, _, err := SplitTag(payload); err == nil ||
		err.Error() != "transport: malformed inference tag (1 payload bytes)" {
		t.Fatalf("SplitTag err = %v, want the malformed-tag error", err)
	}
}

// FuzzReadFrame feeds arbitrary byte streams through the frame reader:
// it must never panic and never misreport — every frame it does return
// must be exactly what a Send of that frame produces at the consumed
// stream position, and every error must be a transport-prefixed one.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(frame(MsgHello, []byte("deepsecure")))
	f.Add(frame(MsgHello, nil))
	f.Add(append(frame(MsgBatchBegin, []byte{1, 1}), frame(MsgBatchConst, bytes.Repeat([]byte{7}, 64))...))
	f.Add(frame(MsgHello, []byte("x"))[:3])                   // truncated header
	f.Add(frame(MsgHello, bytes.Repeat([]byte{9}, 100))[:20]) // truncated payload
	oversized := frame(MsgTables, nil)
	binary.LittleEndian.PutUint32(oversized[1:], 1<<31)
	f.Add(oversized)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}) // unknown type, absurd length

	f.Fuzz(func(t *testing.T, stream []byte) {
		c := rawConn(stream)
		off := 0
		for {
			typ, payload, err := c.ReadFrame()
			if err != nil {
				if !strings.HasPrefix(err.Error(), "transport: ") {
					t.Fatalf("error lost its transport prefix: %v", err)
				}
				return
			}
			// Round-trip: the returned frame re-encodes to exactly the
			// bytes consumed from the stream.
			enc := frame(typ, payload)
			if off+len(enc) > len(stream) || !bytes.Equal(enc, stream[off:off+len(enc)]) {
				t.Fatalf("frame %v/%d bytes at offset %d does not re-encode to the consumed stream bytes",
					typ, len(payload), off)
			}
			off += len(enc)
		}
	})
}
