//go:build !gobonly

package wire

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
)

const testTenant = ids.TenantID(42)

// TestWriteTenantBinaryRoundTrip drives every fast-path-eligible kind
// through the tenant binary codec (tag 3) on a tenant-stamped
// connection: the payload, the tenant and the span context must all
// survive, both traced and untraced.
func TestWriteTenantBinaryRoundTrip(t *testing.T) {
	cases := []struct {
		kind    Kind
		payload any
	}{
		{KindFileEnd, FileEnd{Size: 4096, Checksum: 0xdeadbeef}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 128 << 10, Offset: 8192, Request: 42}},
		{KindWriteFile, WriteFile{File: 3, SizeBytes: 1 << 20, Replication: 9}},
		{KindAck, Ack{}},
		{KindError, Error{Text: "boom"}},
		{KindHeartbeat, Heartbeat{RM: 5}},
		{KindKeepalive, Keepalive{Request: 77}},
	}
	for _, traced := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.kind.String()
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var buf bytes.Buffer
				c := NewConn(&buf)
				c.SetTenant(testTenant)
				var err error
				if traced {
					err = c.WriteTraced(testTC, tc.kind, tc.payload)
				} else {
					err = c.Write(tc.kind, tc.payload)
				}
				if err != nil {
					t.Fatal(err)
				}
				if got := Codec(buf.Bytes()[4]); got != CodecBinaryTenant {
					t.Fatalf("frame codec = %v, want binary-tenant", got)
				}
				msg, err := c.Read()
				if err != nil {
					t.Fatal(err)
				}
				if msg.Tenant != testTenant {
					t.Fatalf("tenant = %v, want %v", msg.Tenant, testTenant)
				}
				wantTC := trace.SpanContext{}
				if traced {
					wantTC = testTC
				}
				if msg.Trace != wantTC {
					t.Fatalf("trace = %+v, want %+v", msg.Trace, wantTC)
				}
				if msg.Kind != tc.kind || msg.Payload != tc.payload {
					t.Fatalf("round trip = %v %#v, want %v %#v", msg.Kind, msg.Payload, tc.kind, tc.payload)
				}
			})
		}
	}
}

// TestWriteChunkTenantRoundTrip proves chunks from a tenant-stamped
// connection carry the tenant slot, with and without a trace, and that
// the borrowed-buffer contract is unchanged.
func TestWriteChunkTenantRoundTrip(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var buf bytes.Buffer
		c := NewConn(&buf)
		c.SetTenant(testTenant)
		data := []byte("tenant chunk payload")
		var err error
		if traced {
			err = c.WriteChunkTraced(testTC, 1024, data)
		} else {
			err = c.WriteChunk(1024, data)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := Codec(buf.Bytes()[4]); got != CodecBinaryTenant {
			t.Fatalf("traced=%v: frame codec = %v, want binary-tenant", traced, got)
		}
		msg, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Tenant != testTenant {
			t.Fatalf("traced=%v: tenant = %v", traced, msg.Tenant)
		}
		if traced && msg.Trace != testTC {
			t.Fatalf("trace = %+v, want %+v", msg.Trace, testTC)
		}
		if !traced && msg.Trace.Valid() {
			t.Fatalf("untraced chunk grew a trace: %+v", msg.Trace)
		}
		ch, ok := msg.Chunk()
		if !ok || ch.Offset != 1024 || !bytes.Equal(ch.Data, data) {
			t.Fatalf("traced=%v: chunk = %+v ok=%v", traced, ch, ok)
		}
		msg.Release()
	}
}

// TestWriteReadReqTenant proves the per-segment ranged-read request
// carries the tenant slot on a stamped connection.
func TestWriteReadReqTenant(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetTenant(testTenant)
	req := ReadFile{File: 9, ChunkSize: 64 << 10, Offset: 4096, Request: 11, Length: 1 << 20}
	if err := c.WriteReadReq(testTC, req); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinaryTenant {
		t.Fatalf("frame codec = %v, want binary-tenant", got)
	}
	msg, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tenant != testTenant || msg.Trace != testTC {
		t.Fatalf("envelope = tenant %v trace %+v", msg.Tenant, msg.Trace)
	}
	got, ok := msg.ReadReq()
	if !ok || got != req {
		t.Fatalf("read req = %+v ok=%v, want %+v", got, ok, req)
	}
	msg.Release()
}

// TestGobFramesCarryTenant proves the universal gob codec carries the
// stamped tenant in the envelope — tenancy is not a fast-path-only
// property.
func TestGobFramesCarryTenant(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetTenant(testTenant)
	c.SetFastPath(false)
	if err := c.Write(KindCount, Count{N: 3}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("frame codec = %v, want gob", got)
	}
	msg, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tenant != testTenant {
		t.Fatalf("gob envelope tenant = %v, want %v", msg.Tenant, testTenant)
	}
	// Gob-ineligible kinds on a fast-path conn fall back to gob and must
	// still carry the tenant.
	c.SetFastPath(true)
	if err := c.Write(KindShardBeat, ShardBeat{Shard: 4}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("fallback frame codec = %v, want gob", got)
	}
	msg, err = c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Tenant != testTenant {
		t.Fatalf("fallback gob envelope tenant = %v", msg.Tenant)
	}
}

// TestUntenantedFramesUnchanged proves a connection without SetTenant
// frames exactly as before tag 3 existed: tag 1 untraced, tag 2 traced,
// and a gob envelope with no tenant field.
func TestUntenantedFramesUnchanged(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Write(KindAck, Ack{}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinary {
		t.Fatalf("untenanted untraced codec = %v, want binary", got)
	}
	buf.Reset()
	if err := c.WriteTraced(testTC, KindAck, Ack{}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinaryTraced {
		t.Fatalf("untenanted traced codec = %v, want binary-traced", got)
	}
	// Clearing the tenant restores untenanted framing.
	buf.Reset()
	c.SetTenant(testTenant)
	c.SetTenant(ids.NoneTenant)
	if err := c.Write(KindAck, Ack{}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinary {
		t.Fatalf("cleared-tenant codec = %v, want binary", got)
	}
}

// TestTenantFrameLayout pins the tag-3 byte layout documented in
// docs/ARCHITECTURE.md: header, tenant u32, trace i64 + span u64, kind
// u16, then the v1 payload.
func TestTenantFrameLayout(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetTenant(testTenant)
	if err := c.WriteChunkTraced(testTC, 0x0102030405060708, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	want := []byte{
		0, 0, 0, 32, // body length: 4+16+2+8+2
		3,           // codec tag binary-tenant
		0, 0, 0, 42, // tenant slot
		0, 0, 0, 0x11, 0x22, 0x33, 0x44, 0x55, // trace ID
		0, 0, 0, 0, 0, 0, 0, 0x99, // span ID
		0, byte(KindFileChunk), // kind
		1, 2, 3, 4, 5, 6, 7, 8, // offset
		0xAA, 0xBB, // data
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("tag-3 frame bytes\n got %v\nwant %v", frame, want)
	}
}

// TestTenantCodecHostileInput proves malformed tag-3 bodies surface
// typed CodecErrors, never panics, and that endpoints refusing binary
// refuse tag 3 too.
func TestTenantCodecHostileInput(t *testing.T) {
	short := frameBytes(CodecBinaryTenant, make([]byte, tenantSize+traceSize-1))
	c := NewConn(bytes.NewBuffer(short))
	_, err := c.Read()
	var ce *CodecError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "tenant") {
		t.Fatalf("short tenant body error = %v", err)
	}

	// Valid slots but a body the binary codec rejects.
	bad := frameBytes(CodecBinaryTenant, append(make([]byte, tenantSize+traceSize), binaryBody(KindFileEnd, []byte{1})...))
	c = NewConn(bytes.NewBuffer(bad))
	if _, err := c.Read(); !errors.As(err, &ce) {
		t.Fatalf("bad inner body error = %v", err)
	}

	// A gob-only endpoint refuses tag 3 with the typed error.
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetTenant(testTenant)
	if err := w.Write(KindAck, Ack{}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(false)
	if _, err := r.Read(); !errors.As(err, &ce) || ce.Codec != CodecBinaryTenant {
		t.Fatalf("gob-only endpoint error = %v", err)
	}
}

// TestCodecTenantStats proves the tag-3 frame counters move.
func TestCodecTenantStats(t *testing.T) {
	tx0, rx0 := CodecTenantStats()
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetTenant(testTenant)
	if err := c.WriteChunk(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	msg, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	msg.Release()
	tx1, rx1 := CodecTenantStats()
	if tx1 != tx0+1 || rx1 != rx0+1 {
		t.Fatalf("tenant frame counters tx %d->%d rx %d->%d", tx0, tx1, rx0, rx1)
	}
}

// TestCodecStringCoversEveryTag pins the Codec.String table: every
// defined tag renders a name, unknown tags the numeric fallback.
func TestCodecStringCoversEveryTag(t *testing.T) {
	want := map[Codec]string{
		CodecGob:          "gob",
		CodecBinary:       "binary",
		CodecBinaryTraced: "binary-traced",
		CodecBinaryTenant: "binary-tenant",
	}
	for c, name := range want {
		if got := c.String(); got != name {
			t.Errorf("Codec(%d).String() = %q, want %q", uint8(c), got, name)
		}
	}
	if got := Codec(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown codec string = %q", got)
	}
}

// TestKindStringCoversEveryKind walks the whole Kind enum and demands an
// interned name for each — a kind added without a kindNames entry fails
// here instead of rendering "Kind(n)" in telemetry labels.
func TestKindStringCoversEveryKind(t *testing.T) {
	for k := KindError; k <= KindShardHandoff; k++ {
		if name := k.String(); strings.HasPrefix(name, "Kind(") || name == "" {
			t.Errorf("Kind %d has no kindNames entry (String() = %q)", uint16(k), name)
		}
	}
	if got := Kind(60000).String(); got != "Kind(60000)" {
		t.Errorf("unknown kind string = %q", got)
	}
}
