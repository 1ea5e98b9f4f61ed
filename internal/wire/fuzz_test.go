package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"dfsqos/internal/trace"
)

// frameBytes assembles a complete frame for the seed corpus.
func frameBytes(codec Codec, body []byte) []byte {
	out := make([]byte, headerSize, headerSize+len(body))
	binary.BigEndian.PutUint32(out[:4], uint32(len(body)))
	out[4] = byte(codec)
	return append(out, body...)
}

// encodedFrame encodes (kind, payload) through the real writer for the
// corpus.
func encodedFrame(kind Kind, payload any) []byte {
	var buf bytes.Buffer
	if err := NewConn(&buf).Write(kind, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzRead feeds arbitrary byte streams to Conn.Read. The invariant under
// hostile input is "typed error or valid message, never a panic": short
// headers, truncated bodies, oversized declared lengths, unknown codec
// tags (the legacy gob tag 0 among them), and malformed binary layouts
// must all surface as errors while leaving the buffer pools consistent.
func FuzzRead(f *testing.F) {
	// Valid frames.
	f.Add(encodedFrame(KindCount, Count{N: 7}))
	f.Add(encodedFrame(KindFileChunk, FileChunk{Offset: 8, Data: []byte("abc")}))
	f.Add(frameBytes(CodecBinary, binaryBody(KindFileChunk,
		append(binary.BigEndian.AppendUint64(nil, 16), "data bytes"...))))
	f.Add(frameBytes(CodecBinary, binaryBody(KindFileEnd, make([]byte, 16))))
	f.Add(frameBytes(CodecBinary, binaryBody(KindAck, nil)))
	f.Add(frameBytes(CodecBinary, binaryBody(KindError, []byte("boom"))))
	// Traced (tag 2) and tenant (tag 3) frames: the slot(s) precede a
	// plain binary-v1 body.
	f.Add(frameBytes(CodecBinaryTraced, append(make([]byte, traceSize),
		binaryBody(KindFileChunk, append(binary.BigEndian.AppendUint64(nil, 16), "data bytes"...))...)))
	f.Add(frameBytes(CodecBinaryTraced, append(make([]byte, traceSize), binaryBody(KindAck, nil)...)))
	f.Add(frameBytes(CodecBinaryTenant, append(make([]byte, tenantSize+traceSize),
		binaryBody(KindFileChunk, append(binary.BigEndian.AppendUint64(nil, 16), "data bytes"...))...)))
	f.Add(frameBytes(CodecBinaryTenant, append(make([]byte, tenantSize+traceSize), binaryBody(KindKeepalive, make([]byte, 8))...)))
	// Every promoted control kind, plain and under the tenant slots.
	for _, tc := range controlCases() {
		body, ok := appendBinary(nil, tc.kind, tc.payload)
		if !ok {
			panic("control case not binary-encodable: " + tc.name)
		}
		f.Add(frameBytes(CodecBinary, body))
		f.Add(frameBytes(CodecBinaryTenant, append(make([]byte, tenantSize+traceSize), body...)))
	}
	f.Add(frameBytes(CodecBinary, binaryBody(KindRMList, []byte{0, 0x10, 0, 0}))) // count past the body
	// Two valid frames back to back (multi-frame streams).
	f.Add(append(encodedFrame(KindAck, Ack{}),
		frameBytes(CodecBinary, binaryBody(KindKeepalive, make([]byte, 8)))...))
	// Hostile shapes.
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                                        // short header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0})                                   // oversized declared length
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2})                                         // truncated body
	f.Add(frameBytes(Codec(200), []byte{1, 2, 3}))                             // unknown codec tag
	f.Add(frameBytes(Codec(0), []byte{1, 2, 3, 4}))                            // legacy gob tag
	f.Add(frameBytes(CodecBinary, nil))                                        // binary body shorter than kind
	f.Add(frameBytes(CodecBinary, binaryBody(KindFileChunk, []byte{1})))       // short chunk
	f.Add(frameBytes(CodecBinary, binaryBody(KindReadFile, make([]byte, 5))))  // wrong fixed len
	f.Add(frameBytes(CodecBinary, binaryBody(Kind(60000), []byte("??"))))      // unknown kind
	f.Add(frameBytes(CodecBinaryTraced, make([]byte, traceSize-1)))            // short trace slot
	f.Add(frameBytes(CodecBinaryTenant, make([]byte, tenantSize+traceSize-1))) // short tenant+trace slots
	f.Add(frameBytes(CodecBinaryTenant, make([]byte, tenantSize+traceSize)))   // slots but no kind

	f.Fuzz(func(t *testing.T, stream []byte) {
		c := NewConn(bytes.NewBuffer(stream))
		for {
			msg, err := c.Read()
			if err != nil {
				return // any error ends the stream; the invariant is no panic
			}
			if ch, ok := msg.Chunk(); ok {
				_ = ChecksumUpdate(ChecksumBasis, ch.Data) // touch every borrowed byte
			}
			msg.Release()
		}
	})
}

// FuzzBinaryChunkRoundTrip drives the fast-path encoder and decoder
// against each other: any (offset, data) pair must survive the writev
// framing byte-for-byte.
func FuzzBinaryChunkRoundTrip(f *testing.F) {
	f.Add(int64(0), []byte(nil))
	f.Add(int64(1), []byte("x"))
	f.Add(int64(-1), []byte("negative offsets must survive the unsigned layout"))
	f.Add(int64(1<<40), bytes.Repeat([]byte{0xa5}, 1024))

	f.Fuzz(func(t *testing.T, offset int64, data []byte) {
		var buf bytes.Buffer
		if err := NewConn(&buf).WriteChunk(trace.SpanContext{}, offset, data); err != nil {
			t.Fatalf("WriteChunk(%d, %d bytes): %v", offset, len(data), err)
		}
		msg, err := NewConn(&buf).Read()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		ch, ok := msg.Chunk()
		if !ok {
			t.Fatalf("payload %T is not a chunk", msg.Payload)
		}
		if ch.Offset != offset {
			t.Fatalf("offset %d → %d", offset, ch.Offset)
		}
		if !bytes.Equal(ch.Data, data) {
			t.Fatalf("%d data bytes mangled", len(data))
		}
		msg.Release()
	})
}

// FuzzControlRoundTrip decodes a raw payload under one of the promoted
// kinds. Decoding must either fail with a typed *CodecError or return a
// payload that re-encodes to exactly the same bytes (the layouts are
// canonical: bit-exact floats, 0/1 bools, counted slices, a ReadFile
// length only when positive), and whose gob reference decode equals the
// binary decode.
func FuzzControlRoundTrip(f *testing.F) {
	for _, tc := range controlCases() {
		body, _ := appendBinary(nil, tc.kind, tc.payload)
		f.Add(uint8(slices.Index(promotedKinds, tc.kind)), body[kindSize:])
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(9), []byte{0, 0x10, 0, 0, 1, 2, 3, 4})

	f.Fuzz(func(t *testing.T, kindIdx uint8, raw []byte) {
		kind := promotedKinds[int(kindIdx)%len(promotedKinds)]
		body := binaryBody(kind, raw)
		msg, _, err := decodeBinary(CodecBinary, body, nil)
		if err != nil {
			var ce *CodecError
			if !errors.As(err, &ce) || ce.Kind != kind {
				t.Fatalf("%v: untyped or misattributed error %v", kind, err)
			}
			return
		}
		again, ok := appendBinary(nil, kind, msg.Payload)
		if !ok {
			t.Fatalf("%v: decoded %T does not re-encode", kind, msg.Payload)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("%v: % x re-encoded as % x", kind, body, again)
		}
		got := valueOf(msg.Payload)
		msg.Release()
		if ref := gobReference(t, got); !equalPayload(ref, got, false) {
			t.Fatalf("%v: gob %#v, binary %#v", kind, ref, got)
		}
	})
}

// FuzzChecksumEquivalence pins ChecksumUpdate to the whole-buffer
// CRC-32C‖CRC-32 reference for arbitrary inputs, and checks that folding
// the input split at every cut, from the basis and from an arbitrary
// starting state, equals folding it whole.
func FuzzChecksumEquivalence(f *testing.F) {
	f.Add([]byte(nil), uint64(0))
	f.Add([]byte("abcdefgh"), uint64(3))
	f.Add(bytes.Repeat([]byte{7}, 100), uint64(0xcbf43926e3069283))

	f.Fuzz(func(t *testing.T, data []byte, state uint64) {
		checkChecksumSplits(t, data, state)
	})
}
