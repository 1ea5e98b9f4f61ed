package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
)

// writeRawFrame forges a frame with an arbitrary codec tag and body,
// bypassing the encoder (hostile-input plumbing for decoder tests).
func writeRawFrame(buf *bytes.Buffer, codec Codec, body []byte) {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = byte(codec)
	buf.Write(hdr[:])
	buf.Write(body)
}

// binaryBody assembles a binary-v1 body: kind field plus raw payload bytes.
func binaryBody(kind Kind, payload []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(kind))
	return append(b, payload...)
}

func TestFastPathFramesCarryBinaryTag(t *testing.T) {
	// Every eligible kind must leave a fast-path connection with the
	// binary codec tag and round-trip intact.
	cases := []struct {
		kind Kind
		body any
	}{
		{KindFileEnd, FileEnd{Size: 1 << 40, Checksum: 0xfeedface}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 65536, Offset: 1024, Request: 99}},
		{KindWriteFile, WriteFile{File: 3, SizeBytes: 1 << 30, Replication: 12}},
		{KindAck, Ack{}},
		{KindError, Error{Text: "disk exploded"}},
		{KindHeartbeat, Heartbeat{RM: 5}},
		{KindKeepalive, Keepalive{Request: 41}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		c := NewConn(&buf)
		c.SetFastPath(true)
		if err := c.Write(tc.kind, tc.body); err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if got := Codec(buf.Bytes()[4]); got != CodecBinary {
			t.Errorf("%v went out as %v, want binary", tc.kind, got)
		}
		r := NewConn(&buf)
		r.SetAcceptBinary(true) // decode must work even under a gobonly default
		msg, err := r.Read()
		if err != nil {
			t.Fatalf("%v: decode: %v", tc.kind, err)
		}
		if msg.Kind != tc.kind {
			t.Errorf("%v decoded as %v", tc.kind, msg.Kind)
		}
		if msg.Payload != tc.body {
			t.Errorf("%v payload: got %+v want %+v", tc.kind, msg.Payload, tc.body)
		}
	}
	// Negative offsets and ids survive the unsigned wire layout.
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetFastPath(true)
	if err := c.WriteChunk(-1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	msg, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != -1 || len(ch.Data) != 1 || ch.Data[0] != 9 {
		t.Fatalf("negative-offset chunk mangled: %+v", msg.Payload)
	}
	msg.Release()
}

func TestIneligibleKindsStayOnGob(t *testing.T) {
	// The shard-group kinds have no binary layout: a fast-path
	// connection must fall back to gob for them.
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetFastPath(true)
	if err := c.Write(KindShardMirror, ShardMirror{Op: "AddReplica", File: 2, RM: 1}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("shard-group frame went out as %v, want gob", got)
	}
	if _, err := NewConn(&buf).Read(); err != nil {
		t.Fatal(err)
	}
}

// negotiationFrames is the ECNP round a DFSC drives against one RM —
// CFP, Bid, Open — as the interop tests send it.
var negotiationFrames = []struct {
	kind    Kind
	payload any
}{
	{KindCFP, ecnp.CFP{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 60, Tenant: 3}},
	{KindBid, selection.Bid{RM: 4, Rem: units.Mbps(-1), Trend: 0.5, OccBias: 0.25, Req: units.Mbps(2), HasReplica: true}},
	{KindOpen, ecnp.OpenRequest{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 60, Firm: true, Tenant: 3}},
}

func TestFastWriterRejectedByGobOnlyReader(t *testing.T) {
	// Satellite interop contract: a fast-path writer talking to an
	// endpoint that does not accept binary frames (a gobonly build) must
	// fail with a typed *CodecError, not garbage or a panic — for the
	// data plane and for every negotiation frame alike.
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	if err := w.WriteChunk(0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, f := range negotiationFrames {
		if err := w.Write(f.kind, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(false)
	for i := 0; i <= len(negotiationFrames); i++ {
		_, err := r.Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("frame %d: rejection not a CodecError: %v", i, err)
		}
		if ce.Codec != CodecBinary {
			t.Fatalf("frame %d: rejected codec %v, want binary", i, ce.Codec)
		}
		if !strings.Contains(ce.Error(), "not accepted") {
			t.Fatalf("frame %d: unhelpful rejection: %q", i, ce.Error())
		}
	}
}

func TestGobWriterReadByFastReader(t *testing.T) {
	// The reverse direction: a gob-pinned writer (legacy peer) must
	// interoperate transparently with a fast-path reader, including for
	// kinds that are binary-eligible.
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(false)
	data := []byte("gob-framed chunk")
	if err := w.WriteChunk(512, data); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindFileEnd, FileEnd{Size: 16, Checksum: 0xabc}); err != nil {
		t.Fatal(err)
	}
	for _, f := range negotiationFrames {
		if err := w.Write(f.kind, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("pinned writer emitted %v", got)
	}
	r := NewConn(&buf)
	msg, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != 512 || !bytes.Equal(ch.Data, data) {
		t.Fatalf("gob chunk mangled: %+v", msg.Payload)
	}
	msg.Release() // no-op on gob messages, must be safe
	end, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if fe, ok := end.Payload.(FileEnd); !ok || fe.Checksum != 0xabc {
		t.Fatalf("gob FileEnd mangled: %+v", end.Payload)
	}
	for _, f := range negotiationFrames {
		msg, err := r.Read()
		if err != nil {
			t.Fatalf("%v: %v", f.kind, err)
		}
		if msg.Kind != f.kind || msg.Payload != f.payload {
			t.Fatalf("gob %v mangled: %v %#v", f.kind, msg.Kind, msg.Payload)
		}
	}
}

func TestMixedCodecInterleave(t *testing.T) {
	// Gob frames (shard-group control) and binary frames (negotiation and
	// data) interleaved on one stream must all decode: per-frame codec
	// tags, no shared state, no decoder poisoning in either direction.
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	chunk0 := []byte("first chunk")
	chunk1 := []byte("second chunk")
	if err := w.Write(KindShardMirror, ShardMirror{Op: "AddReplica", File: 2, RM: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(0, chunk0); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindOpen, ecnp.OpenRequest{Request: 1, File: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(int64(len(chunk0)), chunk1); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindFileEnd, FileEnd{Size: int64(len(chunk0) + len(chunk1))}); err != nil {
		t.Fatal(err)
	}

	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	wantKinds := []Kind{KindShardMirror, KindFileChunk, KindOpen, KindFileChunk, KindFileEnd}
	var got []byte
	for i, want := range wantKinds {
		msg, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Kind != want {
			t.Fatalf("frame %d: kind %v, want %v", i, msg.Kind, want)
		}
		if ch, ok := msg.Chunk(); ok {
			got = append(got, ch.Data...)
		}
		msg.Release()
	}
	if want := string(chunk0) + string(chunk1); string(got) != want {
		t.Fatalf("reassembled %q, want %q", got, want)
	}
}

func TestUnknownCodecTagRejected(t *testing.T) {
	var buf bytes.Buffer
	writeRawFrame(&buf, Codec(7), []byte{1, 2, 3})
	_, err := NewConn(&buf).Read()
	var ce *CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("unknown tag not a CodecError: %v", err)
	}
	if ce.Codec != Codec(7) || !strings.Contains(ce.Reason, "unknown codec") {
		t.Fatalf("misreported: %+v", ce)
	}
}

func TestBinaryMalformedBodiesRejected(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		kind Kind // expected in the CodecError, 0 when never decoded
	}{
		{"empty body", nil, 0},
		{"one-byte body", []byte{0}, 0},
		{"chunk shorter than offset", binaryBody(KindFileChunk, []byte{1, 2, 3}), KindFileChunk},
		{"fileend short", binaryBody(KindFileEnd, make([]byte, 15)), KindFileEnd},
		{"fileend long", binaryBody(KindFileEnd, make([]byte, 17)), KindFileEnd},
		{"readfile wrong len", binaryBody(KindReadFile, make([]byte, 27)), KindReadFile},
		{"writefile wrong len", binaryBody(KindWriteFile, make([]byte, 19)), KindWriteFile},
		{"ack with payload", binaryBody(KindAck, []byte{1}), KindAck},
		{"heartbeat wrong len", binaryBody(KindHeartbeat, make([]byte, 5)), KindHeartbeat},
		{"keepalive wrong len", binaryBody(KindKeepalive, make([]byte, 7)), KindKeepalive},
		{"uncovered kind", binaryBody(KindShardMirror, nil), KindShardMirror},
		{"unknown kind", binaryBody(Kind(999), nil), Kind(999)},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		writeRawFrame(&buf, CodecBinary, tc.body)
		r := NewConn(&buf)
		r.SetAcceptBinary(true)
		_, err := r.Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("%s: not a CodecError: %v", tc.name, err)
			continue
		}
		if ce.Kind != tc.kind {
			t.Errorf("%s: CodecError kind %v, want %v", tc.name, ce.Kind, tc.kind)
		}
	}
	// Every promoted control kind, one byte short and one byte long, and
	// counts the body cannot hold.
	for _, mc := range malformedControlBodies(t) {
		var buf bytes.Buffer
		writeRawFrame(&buf, CodecBinary, mc.body)
		r := NewConn(&buf)
		r.SetAcceptBinary(true)
		_, err := r.Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("%s: not a CodecError: %v", mc.name, err)
			continue
		}
		if ce.Kind != mc.kind || ce.Codec != CodecBinary {
			t.Errorf("%s: CodecError %v/%v, want binary/%v", mc.name, ce.Codec, ce.Kind, mc.kind)
		}
	}
}

func TestWriteTornEnforcesCap(t *testing.T) {
	// Satellite: WriteTorn must apply the same MaxFrame outgoing check as
	// Write — a torn frame simulates "peer died mid-write", never "peer
	// sent an oversized frame" — and must leave nothing on the stream.
	var buf bytes.Buffer
	c := NewConn(&buf)
	err := c.WriteTorn(KindFileChunk, FileChunk{Data: make([]byte, MaxFrame+1)})
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) {
		t.Fatalf("oversize torn write not a FrameTooLargeError: %v", err)
	}
	if !fe.Outgoing || fe.Kind != KindFileChunk {
		t.Fatalf("misreported: %+v", fe)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes leaked onto the stream before the cap check", buf.Len())
	}
}

func TestReleaseIdempotentAndNilsPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	if err := w.WriteChunk(64, []byte("once")); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	msg, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.Chunk(); !ok {
		t.Fatalf("payload %T is not a chunk", msg.Payload)
	}
	msg.Release()
	if msg.Payload != nil {
		t.Fatal("Payload survives Release — use-after-release would read recycled bytes silently")
	}
	msg.Release() // second release must be a no-op, not a double-Put
	var gobMsg Msg
	gobMsg.Release() // zero Msg release is safe too
}

func TestCodecStatsObserveBothPaths(t *testing.T) {
	tx0, txg0, rx0, rxg0 := CodecStats()
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	if err := w.WriteChunk(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindShardMirror, ShardMirror{Op: "AddReplica"}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	for i := 0; i < 2; i++ {
		msg, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		msg.Release()
	}
	tx1, txg1, rx1, rxg1 := CodecStats()
	if tx1 <= tx0 || txg1 <= txg0 || rx1 <= rx0 || rxg1 <= rxg0 {
		t.Fatalf("counters did not all advance: tx %d→%d txGob %d→%d rx %d→%d rxGob %d→%d",
			tx0, tx1, txg0, txg1, rx0, rx1, rxg0, rxg1)
	}
}

// checksumReference is the whole-buffer definition ChecksumUpdate must
// match: CRC-32C in the high half, CRC-32 (IEEE) in the low half, each
// computed in one call by the stdlib's one-shot entry points.
func checksumReference(d []byte) uint64 {
	return uint64(crc32.Checksum(d, crc32.MakeTable(crc32.Castagnoli)))<<32 | uint64(crc32.ChecksumIEEE(d))
}

// checkChecksumSplits fails t unless ChecksumUpdate matches the reference
// over data and, from the basis and from state, is invariant under a
// split at every cut.
func checkChecksumSplits(t *testing.T, data []byte, state uint64) {
	t.Helper()
	whole := ChecksumUpdate(ChecksumBasis, data)
	if want := checksumReference(data); whole != want {
		t.Fatalf("len %d: ChecksumUpdate %x != reference %x", len(data), whole, want)
	}
	fromState := ChecksumUpdate(state, data)
	for cut := 0; cut <= len(data); cut++ {
		if got := ChecksumUpdate(ChecksumUpdate(ChecksumBasis, data[:cut]), data[cut:]); got != whole {
			t.Fatalf("len %d split at %d: %x != whole %x", len(data), cut, got, whole)
		}
		if got := ChecksumUpdate(ChecksumUpdate(state, data[:cut]), data[cut:]); got != fromState {
			t.Fatalf("state %x len %d split at %d: %x != whole %x", state, len(data), cut, got, fromState)
		}
	}
}

func TestChecksumUnrolledMatchesScalar(t *testing.T) {
	// ChecksumUpdate must equal the whole-buffer CRC-32C‖CRC-32 reference
	// at every length straddling the accelerated paths' block sizes, and
	// stay split-invariant from the basis and from non-basis states.
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	for n := 0; n <= len(data); n++ {
		checkChecksumSplits(t, data[:n], 0x1234_5678_9abc_def0)
	}
	// Golden vectors: the published CRC-32C (0xE3069283) and CRC-32
	// (0xCBF43926) check values over "123456789", and the empty input.
	for _, g := range []struct {
		in   string
		want uint64
	}{{"123456789", 0xE3069283CBF43926}, {"", 0}} {
		if got := ChecksumUpdate(ChecksumBasis, []byte(g.in)); got != g.want {
			t.Fatalf("checksum(%q) = %#x, want %#x", g.in, got, g.want)
		}
	}
}

func TestSetDefaultFastPathSeedsNewConns(t *testing.T) {
	prev := SetDefaultFastPath(false)
	defer SetDefaultFastPath(prev)
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteChunk(0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("conn created under gob default emitted %v", got)
	}
	SetDefaultFastPath(true)
	var buf2 bytes.Buffer
	c2 := NewConn(&buf2)
	if err := c2.WriteChunk(0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf2.Bytes()[4]); got != CodecBinary {
		t.Fatalf("conn created under fast default emitted %v", got)
	}
}

func TestCodecString(t *testing.T) {
	if CodecGob.String() != "gob" || CodecBinary.String() != "binary" {
		t.Fatalf("codec names: %v %v", CodecGob, CodecBinary)
	}
	if got := Codec(9).String(); got != "codec(9)" {
		t.Fatalf("unknown codec renders %q", got)
	}
}
