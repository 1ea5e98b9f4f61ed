package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"dfsqos/internal/trace"
)

// TestRangedReadFileRoundTrip proves the ranged request form (Length > 0)
// round-trips and surfaces through the ReadReq accessor, which is the
// only way servers should extract it (a ranged request decodes to a
// pooled *ReadFile, a whole-file one to a plain value).
func TestRangedReadFileRoundTrip(t *testing.T) {
	want := ReadFile{File: 7, ChunkSize: 65536, Offset: 4096, Request: 99, Length: 131072}
	var buf bytes.Buffer
	if err := NewConn(&buf).Write(KindReadFile, want); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinary {
		t.Errorf("frame tagged %v, want binary", got)
	}
	msg, err := NewConn(&buf).Read()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, ok := msg.ReadReq()
	if !ok {
		t.Fatalf("ReadReq reported false for %T", msg.Payload)
	}
	if got != want {
		t.Errorf("got %+v want %+v", got, want)
	}
	msg.Release()
	if msg.Payload != nil {
		t.Error("Release left Payload set")
	}
}

// TestRangedReadFileFrameCompat pins the interop contract: a whole-file
// request (Length == 0) must frame byte-identically to the pre-ranged
// 28-byte layout, so peers that predate the length field keep working.
func TestRangedReadFileFrameCompat(t *testing.T) {
	var plain, zero bytes.Buffer
	for _, pair := range []struct {
		buf *bytes.Buffer
		req ReadFile
	}{
		{&plain, ReadFile{File: 3, ChunkSize: 1024, Offset: 512, Request: 8}},
		{&zero, ReadFile{File: 3, ChunkSize: 1024, Offset: 512, Request: 8, Length: 0}},
	} {
		c := NewConn(pair.buf)
		if err := c.Write(KindReadFile, pair.req); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(plain.Bytes(), zero.Bytes()) {
		t.Fatalf("Length==0 frame differs from legacy frame:\n%x\n%x", plain.Bytes(), zero.Bytes())
	}
	wantBody := headerSize + kindSize + 28
	if plain.Len() != wantBody {
		t.Fatalf("whole-file frame is %d bytes, want %d (legacy layout)", plain.Len(), wantBody)
	}
	var ranged bytes.Buffer
	c := NewConn(&ranged)
	if err := c.Write(KindReadFile, ReadFile{File: 3, ChunkSize: 1024, Offset: 512, Request: 8, Length: 256}); err != nil {
		t.Fatal(err)
	}
	if ranged.Len() != wantBody+8 {
		t.Fatalf("ranged frame is %d bytes, want %d (trailing length field)", ranged.Len(), wantBody+8)
	}
}

// TestRangedReadFileMalformedLength proves the dual-length decode stays
// strict: only 28- and 36-byte bodies are valid ReadFile layouts, and
// anything between or beyond is a typed CodecError. So is a 36-byte body
// whose trailing length is not positive: the encoder writes that field
// only for ranged reads, so the body would re-encode as 28 bytes.
func TestRangedReadFileMalformedLength(t *testing.T) {
	nonPositive := func(length int64) []byte {
		return binary.BigEndian.AppendUint64(make([]byte, 28), uint64(length))
	}
	for name, payload := range map[string][]byte{
		"29 bytes":        make([]byte, 29),
		"35 bytes":        make([]byte, 35),
		"37 bytes":        make([]byte, 37),
		"zero length":     nonPositive(0),
		"negative length": nonPositive(-1),
		"min length":      nonPositive(math.MinInt64),
	} {
		var buf bytes.Buffer
		writeRawFrame(&buf, CodecBinary, binaryBody(KindReadFile, payload))
		_, err := NewConn(&buf).Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: want CodecError, got %v", name, err)
		}
		if ce.Kind != KindReadFile {
			t.Errorf("%s: CodecError kind %v, want ReadFile", name, ce.Kind)
		}
	}
}

// BenchmarkEncodeRangedRead measures putting one ranged ReadFile request
// on the wire — the per-segment control cost of a striped read. The fast
// sub-benchmark is gated at 0 allocs/op by scripts/bench.sh.
func BenchmarkEncodeRangedRead(b *testing.B) {
	req := ReadFile{File: 7, ChunkSize: 128 * 1024, Offset: 1 << 20, Request: 42, Length: 1 << 20}
	b.Run("fast", func(b *testing.B) {
		c := NewConn(discardRW{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.WriteReadReq(trace.SpanContext{}, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeRangedRead measures decoding the ranged request frame;
// the decoder borrows a pooled ReadFile (0 allocs/op with Release, gated
// by scripts/bench.sh).
func BenchmarkDecodeRangedRead(b *testing.B) {
	req := ReadFile{File: 7, ChunkSize: 128 * 1024, Offset: 1 << 20, Request: 42, Length: 1 << 20}
	b.Run("fast", func(b *testing.B) {
		var buf bytes.Buffer
		if err := NewConn(&buf).Write(KindReadFile, req); err != nil {
			b.Fatal(err)
		}
		r := NewConn(&loopRW{frame: buf.Bytes()})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msg, err := r.Read()
			if err != nil {
				b.Fatal(err)
			}
			msg.Release()
		}
	})
}
