package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
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
	// Every data-plane kind must leave a connection with the binary codec
	// tag and round-trip intact.
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
		{KindShardBeat, ShardBeat{Shard: 2}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		c := NewConn(&buf)
		if err := c.Write(tc.kind, tc.body); err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if got := Codec(buf.Bytes()[4]); got != CodecBinary {
			t.Errorf("%v went out as %v, want binary", tc.kind, got)
		}
		msg, err := NewConn(&buf).Read()
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
	if err := c.WriteChunk(trace.SpanContext{}, -1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	msg, err := NewConn(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != -1 || len(ch.Data) != 1 || ch.Data[0] != 9 {
		t.Fatalf("negative-offset chunk mangled: %+v", msg.Payload)
	}
	msg.Release()
}

// TestDefaultBuildUsesFastPath pins that a fresh connection needs no
// opt-in: its chunks go out binary and a fresh reader accepts them.
func TestDefaultBuildUsesFastPath(t *testing.T) {
	var buf bytes.Buffer
	if err := NewConn(&buf).WriteChunk(trace.SpanContext{}, 0, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinary {
		t.Fatalf("chunk went out as %v", got)
	}
	msg, err := NewConn(&buf).Read()
	if err != nil {
		t.Fatalf("rejected its own binary frame: %v", err)
	}
	if ch, ok := msg.Chunk(); !ok || string(ch.Data) != "hot" {
		t.Fatalf("chunk mangled: %+v", msg.Payload)
	}
	msg.Release()
}

// TestWriteWithoutLayoutSendsNothing: a (kind, payload) pair the binary
// codec has no layout for fails with a typed *CodecError naming the kind,
// and not one byte reaches the stream.
func TestWriteWithoutLayoutSendsNothing(t *testing.T) {
	for _, tc := range []struct {
		kind    Kind
		payload any
	}{
		{KindShardMirror, ShardBeat{Shard: 1}},
		{KindFileChunk, FileEnd{}},
		{Kind(999), Ack{}},
		{KindCFP, struct{ X int }{1}},
	} {
		var buf bytes.Buffer
		c := NewConn(&buf)
		c.SetTenant(3)
		err := c.WriteTraced(testTC, tc.kind, tc.payload)
		var ce *CodecError
		if !errors.As(err, &ce) || ce.Kind != tc.kind || ce.Codec != CodecBinaryTenant {
			t.Errorf("%v with %T: err = %v, want a CodecError naming the kind", tc.kind, tc.payload, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%v with %T: %d bytes reached the stream", tc.kind, tc.payload, buf.Len())
		}
	}
}

// gobEnvelope is the frame body a peer that predates the binary-only
// wire sent under tag 0: a gob-encoded {Kind, Payload} envelope. Tests
// build it to impersonate such a peer.
func gobEnvelope(t *testing.T, kind Kind, payload any) []byte {
	t.Helper()
	gob.Register(payload)
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(struct {
		Kind    Kind
		Payload any
	}{kind, payload}); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// negotiationFrames is the ECNP round a DFSC drives against one RM —
// CFP, Bid, Open — as the version-skew tests send it.
var negotiationFrames = []struct {
	kind    Kind
	payload any
}{
	{KindCFP, ecnp.CFP{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 60, Tenant: 3}},
	{KindBid, selection.Bid{RM: 4, Rem: units.Mbps(-1), Trend: 0.5, OccBias: 0.25, Req: units.Mbps(2), HasReplica: true}},
	{KindOpen, ecnp.OpenRequest{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 60, Firm: true}},
}

func TestGobWriterReadByFastReader(t *testing.T) {
	// A gob-speaking peer (tag 0, the codec older builds sent) meets the
	// binary-only reader: every one of its frames — data plane and
	// negotiation alike — fails with a typed *CodecError naming tag 0,
	// never a misparse. The whole body is consumed, so the stream stays
	// frame-synchronized and a binary frame behind them still decodes.
	var buf bytes.Buffer
	writeRawFrame(&buf, Codec(0), gobEnvelope(t, KindFileChunk, FileChunk{Offset: 512, Data: []byte("gob-framed chunk")}))
	for _, f := range negotiationFrames {
		writeRawFrame(&buf, Codec(0), gobEnvelope(t, f.kind, f.payload))
	}
	if err := NewConn(&buf).Write(KindFileEnd, FileEnd{Size: 16, Checksum: 0xabc}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	for i := 0; i <= len(negotiationFrames); i++ {
		_, err := r.Read()
		var ce *CodecError
		if !errors.As(err, &ce) || ce.Codec != 0 || !strings.Contains(ce.Reason, "unknown codec tag") {
			t.Fatalf("gob frame %d: err = %v, want CodecError{codec(0), unknown codec tag}", i, err)
		}
	}
	end, err := r.Read()
	if err != nil {
		t.Fatalf("binary frame after the refused gob frames: %v", err)
	}
	if fe, ok := end.Payload.(FileEnd); !ok || fe.Checksum != 0xabc {
		t.Fatalf("FileEnd mangled: %+v", end.Payload)
	}
}

func TestMixedCodecInterleave(t *testing.T) {
	// Shard-group control, negotiation and data frames, plain and traced,
	// interleaved on one stream must all decode: per-frame codec tags, no
	// shared state, no decoder poisoning in either direction.
	var buf bytes.Buffer
	w := NewConn(&buf)
	chunk0 := []byte("first chunk")
	chunk1 := []byte("second chunk")
	if err := w.Write(KindShardMirror, ShardMirror{Op: "AddReplica", File: 2, RM: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(trace.SpanContext{}, 0, chunk0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTraced(testTC, KindOpen, ecnp.OpenRequest{Request: 1, File: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(testTC, int64(len(chunk0)), chunk1); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindFileEnd, FileEnd{Size: int64(len(chunk0) + len(chunk1))}); err != nil {
		t.Fatal(err)
	}

	r := NewConn(&buf)
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
	// Tag 0 is the gob envelope older peers sent; 4 and up were never
	// assigned.
	for _, tag := range []Codec{0, 4, 7, 255} {
		var buf bytes.Buffer
		writeRawFrame(&buf, tag, []byte{1, 2, 3})
		_, err := NewConn(&buf).Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("tag %d: not a CodecError: %v", tag, err)
		}
		if ce.Codec != tag || !strings.Contains(ce.Reason, "unknown codec") {
			t.Fatalf("tag %d: misreported: %+v", tag, ce)
		}
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
		{"shard mirror empty", binaryBody(KindShardMirror, nil), KindShardMirror},
		{"unknown kind", binaryBody(Kind(999), nil), Kind(999)},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		writeRawFrame(&buf, CodecBinary, tc.body)
		_, err := NewConn(&buf).Read()
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
		_, err := NewConn(&buf).Read()
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
	if err := w.WriteChunk(trace.SpanContext{}, 64, []byte("once")); err != nil {
		t.Fatal(err)
	}
	msg, err := NewConn(&buf).Read()
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
	var zero Msg
	zero.Release() // zero Msg release is safe too
}

func TestCodecStatsObserveBothPaths(t *testing.T) {
	// Both directions count plain binary frames, shard-group control
	// included; the gob counts stay at zero.
	tx0, _, rx0, _ := CodecStats()
	var buf bytes.Buffer
	w := NewConn(&buf)
	if err := w.WriteChunk(trace.SpanContext{}, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindShardMirror, ShardMirror{Op: "AddReplica"}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	for i := 0; i < 2; i++ {
		msg, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		msg.Release()
	}
	tx1, txg, rx1, rxg := CodecStats()
	if tx1-tx0 != 2 || rx1-rx0 != 2 || txg != 0 || rxg != 0 {
		t.Fatalf("binary tx %d→%d rx %d→%d (want +2 each), gob tx %d rx %d (want 0)",
			tx0, tx1, rx0, rx1, txg, rxg)
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

func TestCodecString(t *testing.T) {
	if CodecBinary.String() != "binary" {
		t.Fatalf("codec name: %v", CodecBinary)
	}
	for tag, want := range map[Codec]string{0: "codec(0)", 9: "codec(9)"} {
		if got := tag.String(); got != want {
			t.Fatalf("unassigned tag %d renders %q, want %q", tag, got, want)
		}
	}
}
