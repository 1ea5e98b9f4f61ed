package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// promotedKinds are the control kinds with a binary-v1 layout beyond the
// data plane: every kind except the gob-only shard-group kinds.
var promotedKinds = []Kind{
	KindRegisterRM, KindLookup, KindRMsWithout, KindAddReplica,
	KindRemoveReplica, KindBeginReplication, KindEndReplication,
	KindReplicaCount, KindRMs, KindRMList, KindRMInfoList, KindCount,
	KindCFP, KindBid, KindOpen, KindOpenResult, KindClose,
	KindOfferReplica, KindOfferReply, KindFinishReplica, KindStoreFile,
}

// controlCase is one (kind, payload) the differential tests send. want is
// the payload the decoder must return when it differs from the one sent
// (an empty slice decodes to nil on both codecs).
type controlCase struct {
	name    string
	kind    Kind
	payload any
	want    any
}

func (c controlCase) decoded() any {
	if c.want != nil {
		return c.want
	}
	return c.payload
}

// controlCases is a hostile-ish payload table covering every promoted
// kind: sign extremes, NaN with a payload, −0 and ±Inf, nil and empty
// slices, and strings carrying UTF-8 and NUL bytes.
func controlCases() []controlCase {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	const odd = "héllo\x00wörld ✓"
	info := ecnp.RMInfo{ID: 3, Capacity: units.Mbps(30), StorageBytes: 1 << 40, Addr: "10.0.0.3:7301"}
	oddInfo := ecnp.RMInfo{ID: -1, Capacity: units.BytesPerSec(nan), StorageBytes: -1, Addr: odd}
	return []controlCase{
		{name: "lookup", kind: KindLookup, payload: FileRef{File: 7}},
		{name: "lookup negative", kind: KindLookup, payload: FileRef{File: -1}},
		{name: "rms without", kind: KindRMsWithout, payload: FileRef{File: math.MaxInt32}},
		{name: "replica count", kind: KindReplicaCount, payload: FileRef{File: math.MinInt32}},
		{name: "rms", kind: KindRMs, payload: nil},
		{name: "rmlist nil", kind: KindRMList, payload: RMList{}},
		{name: "rmlist empty", kind: KindRMList, payload: RMList{RMs: []ids.RMID{}}, want: RMList{}},
		{name: "rmlist", kind: KindRMList, payload: RMList{RMs: []ids.RMID{1, -2, math.MaxInt32}}},
		{name: "rminfolist nil", kind: KindRMInfoList, payload: RMInfoList{}},
		{name: "rminfolist empty", kind: KindRMInfoList, payload: RMInfoList{Infos: []ecnp.RMInfo{}}, want: RMInfoList{}},
		{name: "rminfolist", kind: KindRMInfoList, payload: RMInfoList{Infos: []ecnp.RMInfo{info, oddInfo, {}}}},
		{name: "count", kind: KindCount, payload: Count{N: math.MaxInt64}},
		{name: "count negative", kind: KindCount, payload: Count{N: -5}},
		{name: "add replica", kind: KindAddReplica, payload: ReplicaRef{File: 3, RM: -4}},
		{name: "remove replica", kind: KindRemoveReplica, payload: ReplicaRef{File: math.MaxInt32, RM: 9}},
		{name: "begin replication", kind: KindBeginReplication, payload: BeginReplication{File: 1, RM: 2, MaxTotal: -1}},
		{name: "end replication commit", kind: KindEndReplication, payload: EndReplication{File: 1, RM: 2, Commit: true}},
		{name: "end replication abort", kind: KindEndReplication, payload: EndReplication{File: 1, RM: 2}},
		{name: "register", kind: KindRegisterRM, payload: RegisterRM{Info: info, Files: []ids.FileID{0, 1, -1, math.MaxInt32}}},
		{name: "register nil files", kind: KindRegisterRM, payload: RegisterRM{Info: oddInfo}},
		{name: "register empty files", kind: KindRegisterRM, payload: RegisterRM{Info: info, Files: []ids.FileID{}}, want: RegisterRM{Info: info}},
		{name: "cfp", kind: KindCFP, payload: ecnp.CFP{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 60, Tenant: 3}},
		{name: "cfp hostile", kind: KindCFP, payload: ecnp.CFP{Request: math.MaxInt64, File: -9, Bitrate: units.BytesPerSec(negZero), DurationSec: nan, Tenant: -1}},
		{name: "bid", kind: KindBid, payload: selection.Bid{RM: 4, Rem: units.Mbps(5), Trend: 0.5, OccBias: 0.25, Req: units.Mbps(2), HasReplica: true, Assured: units.Mbps(5), Ceil: units.Mbps(7), TenantShare: 0.1}},
		{name: "bid hostile", kind: KindBid, payload: selection.Bid{RM: -4, Rem: units.Mbps(-3), Trend: nan, OccBias: negZero, Req: units.BytesPerSec(math.MaxFloat64), Ceil: units.BytesPerSec(inf), TenantShare: math.SmallestNonzeroFloat64}},
		{name: "open", kind: KindOpen, payload: ecnp.OpenRequest{Request: 1, File: 2, Bitrate: units.Mbps(2), DurationSec: 60, Firm: true, Tenant: 3}},
		{name: "open hostile", kind: KindOpen, payload: ecnp.OpenRequest{Request: math.MinInt64, File: -1, Bitrate: units.BytesPerSec(-inf), DurationSec: negZero}},
		{name: "open result ok", kind: KindOpenResult, payload: ecnp.OpenResult{OK: true}},
		{name: "open result reason", kind: KindOpenResult, payload: ecnp.OpenResult{Reason: odd}},
		{name: "close", kind: KindClose, payload: CloseReq{Request: math.MaxInt64}},
		{name: "store", kind: KindStoreFile, payload: ecnp.StoreRequest{File: 5, Bitrate: units.Mbps(1), SizeBytes: 64 << 10, DurationSec: 0.5, Tenant: 2}},
		{name: "store hostile", kind: KindStoreFile, payload: ecnp.StoreRequest{File: -5, Bitrate: units.BytesPerSec(nan), SizeBytes: math.MinInt64, DurationSec: inf, Tenant: math.MaxInt32}},
		{name: "offer", kind: KindOfferReplica, payload: ecnp.ReplicaOffer{Replication: 9, File: 1, SizeBytes: 1 << 30, Bitrate: units.Mbps(2), DurationSec: 120, Rate: units.Mbps(1.8), Source: 3}},
		{name: "offer hostile", kind: KindOfferReplica, payload: ecnp.ReplicaOffer{Replication: -1, File: -1, SizeBytes: -1, Bitrate: units.BytesPerSec(negZero), DurationSec: nan, Rate: units.BytesPerSec(-inf), Source: -1}},
		{name: "offer reply yes", kind: KindOfferReply, payload: OfferReply{Accepted: true}},
		{name: "offer reply no", kind: KindOfferReply, payload: OfferReply{}},
		{name: "finish", kind: KindFinishReplica, payload: FinishReplica{Replication: math.MinInt64, Committed: true}},
	}
}

// equalPayload is reflect.DeepEqual, except that floats compare by bit
// pattern (so a NaN equals the identical NaN) and, when signedZero is
// false, −0 equals +0: gob omits a float field equal to zero, sign
// included, so a gob peer receives −0 as +0.
func equalPayload(a, b any, signedZero bool) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return equalValue(reflect.ValueOf(a), reflect.ValueOf(b), signedZero)
}

func equalValue(a, b reflect.Value, signedZero bool) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		return math.Float64bits(x) == math.Float64bits(y) || (!signedZero && x == 0 && y == 0)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValue(a.Field(i), b.Field(i), signedZero) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValue(a.Index(i), b.Index(i), signedZero) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// controlModes are the three ways a control frame is stamped: plain,
// traced, and tenant-stamped (traced).
var controlModes = []struct {
	name   string
	tc     trace.SpanContext
	tenant ids.TenantID
	codec  Codec
}{
	{"plain", trace.SpanContext{}, ids.NoneTenant, CodecBinary},
	{"traced", trace.SpanContext{Trace: 0x55aa, Span: 0x77}, ids.NoneTenant, CodecBinaryTraced},
	{"tenant", trace.SpanContext{Trace: 0x55aa, Span: 0x77}, 9, CodecBinaryTenant},
}

// sendControl writes one control frame under mode on a connection pinned
// to fast (or gob), reads it back on a binary-accepting reader, and
// returns the message and the codec tag the frame carried.
func sendControl(t *testing.T, fast bool, tc trace.SpanContext, tenant ids.TenantID, kind Kind, payload any) (Msg, Codec) {
	t.Helper()
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(fast)
	w.SetTenant(tenant)
	if err := w.WriteTraced(tc, kind, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	codec := Codec(buf.Bytes()[4])
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	msg, err := r.Read()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after one frame", buf.Len())
	}
	return msg, codec
}

// TestControlCodecDifferential writes every promoted kind's payload table
// once on the binary fast path and once on gob, untraced, traced and
// tenant-stamped, and requires both decodes to agree with each other
// and with the payload sent (floats bit for bit on the fast path).
func TestControlCodecDifferential(t *testing.T) {
	covered := map[Kind]bool{}
	for _, mode := range controlModes {
		for _, tc := range controlCases() {
			covered[tc.kind] = true
			t.Run(mode.name+"/"+tc.name, func(t *testing.T) {
				fast, fastCodec := sendControl(t, true, mode.tc, mode.tenant, tc.kind, tc.payload)
				slow, slowCodec := sendControl(t, false, mode.tc, mode.tenant, tc.kind, tc.payload)
				if fastCodec != mode.codec || slowCodec != CodecGob {
					t.Fatalf("codecs fast=%v gob=%v, want %v and gob", fastCodec, slowCodec, mode.codec)
				}
				for _, m := range []Msg{fast, slow} {
					if m.Kind != tc.kind || m.Trace != mode.tc || m.Tenant != mode.tenant {
						t.Fatalf("envelope = %v %+v %v, want %v %+v %v", m.Kind, m.Trace, m.Tenant, tc.kind, mode.tc, mode.tenant)
					}
				}
				if !equalPayload(fast.Payload, slow.Payload, false) {
					t.Fatalf("binary and gob disagree:\nbinary %#v\ngob    %#v", fast.Payload, slow.Payload)
				}
				if !equalPayload(fast.Payload, tc.decoded(), true) {
					t.Fatalf("binary decode %#v, want %#v", fast.Payload, tc.decoded())
				}
			})
		}
	}
	for _, k := range promotedKinds {
		if !covered[k] {
			t.Errorf("%v has no differential case", k)
		}
	}
}

// TestControlKindsRejectMismatchedPayloads: a promoted kind sent with a
// payload type that is not its layout's must fall back to gob rather
// than be framed under another kind's layout.
func TestControlKindsRejectMismatchedPayloads(t *testing.T) {
	for _, tc := range []struct {
		kind    Kind
		payload any
	}{
		{KindCFP, ecnp.OpenRequest{}},
		{KindBid, Count{N: 1}},
		{KindOpenResult, Error{Text: "x"}},
		{KindRMs, FileRef{}},
		{KindLookup, ReplicaRef{}},
		{KindAck, nil},
	} {
		if _, ok := appendBinary(nil, tc.kind, tc.payload); ok {
			t.Errorf("%v accepted a %T payload", tc.kind, tc.payload)
		}
	}
}

// malformedBody is a binary-v1 body the decoder must refuse with a
// CodecError naming kind.
type malformedBody struct {
	name string
	kind Kind
	body []byte
}

// malformedControlBodies derives, from each case's valid encoding, a body
// one byte short and one byte long. OpenResult ends in a tail string
// that absorbs any length, so its short body stops before the OK byte
// and its "long" one carries an OK byte of 2; the empty RMs body has no
// shorter form.
func malformedControlBodies(t *testing.T) []malformedBody {
	t.Helper()
	var out []malformedBody
	add := func(name string, kind Kind, body []byte) {
		out = append(out, malformedBody{name, kind, body})
	}
	for _, tc := range controlCases() {
		body, ok := appendBinary(nil, tc.kind, tc.payload)
		if !ok {
			t.Fatalf("%s: not binary-encodable", tc.name)
		}
		if tc.kind == KindOpenResult {
			// The tail absorbs any length past the OK byte.
			add(tc.name+" short", tc.kind, body[:kindSize])
			bad := append([]byte(nil), body...)
			bad[kindSize] = 2
			add(tc.name+" bad bool", tc.kind, bad)
			continue
		}
		if len(body) > kindSize {
			add(tc.name+" short", tc.kind, body[:len(body)-1])
		}
		add(tc.name+" long", tc.kind, append(append([]byte(nil), body...), 0))
	}
	// Counts the remaining bytes cannot hold, refused before anything is
	// allocated for them. They are kept to 2^20 elements so that a broken
	// bounds check fails the test instead of exhausting memory.
	add("rmlist count exceeds body", KindRMList, binaryBody(KindRMList, []byte{0, 0, 0x10, 0, 0, 0, 0, 1}))
	add("rminfolist count exceeds body", KindRMInfoList, binaryBody(KindRMInfoList, []byte{0, 0x10, 0, 0}))
	add("register addr exceeds body", KindRegisterRM, binaryBody(KindRegisterRM, append(make([]byte, 20), 0xff, 0xff, 0xff, 0xff)))
	add("offer reply bad bool", KindOfferReply, binaryBody(KindOfferReply, []byte{2}))
	return out
}

// TestControlHostileCountRefusedBeforeAllocation pins the bounds-check
// order: a count the body cannot hold is refused before the slice is
// made. The count (2^20 ids, 4 MiB) is modest so that a regression shows
// up in the allocation total without straining the machine.
func TestControlHostileCountRefusedBeforeAllocation(t *testing.T) {
	body := binaryBody(KindRMList, []byte{0, 0x10, 0, 0, 0, 0, 0, 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := decodeBinary(CodecBinary, body, nil)
	runtime.ReadMemStats(&after)
	var ce *CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("hostile count accepted: %v", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<10 {
		t.Fatalf("decoding a refused count allocated %d bytes", d)
	}
}
