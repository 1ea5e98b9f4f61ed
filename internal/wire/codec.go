// Binary codec for every frame kind except the shard-group ones. The
// frame header carries a one-byte codec tag, so every frame
// independently declares how its body is encoded: gob (tag 0, the
// stateless reflection codec every kind supports), binary v1 (tag 1, a
// hand-rolled fixed-layout encoding), traced binary (tag 2, the same
// layout with a 16-byte trace slot ahead of the kind), or tenant binary
// (tag 3, a tenant slot and the trace slot ahead of the kind). All the
// codecs can interleave freely on one connection — the reader dispatches
// per frame, and no codec keeps cross-frame state, so the "stateless
// frame" recovery property of the original gob framing is preserved.
//
// Binary v1 body layout (big-endian throughout; f64 is the IEEE-754 bit
// pattern, bool one byte 0 or 1, []T a u32 count then the elements, str
// a u32 length then the bytes, "rest" the remainder of the body):
//
//	[0:2]  uint16 kind
//	[2:]   payload, fixed layout per kind:
//	  FileChunk:  offset u64 | data (rest of body, length implicit)
//	  FileEnd:    size u64 | checksum u64
//	  ReadFile:   file i32 | chunkSize i64 | offset i64 | request i64 [| length i64]
//	              (the trailing length is present only for ranged reads —
//	              Length > 0 — so a whole-file request frames byte-identically
//	              to the pre-ranged layout; the decoder accepts both lengths)
//	  WriteFile:  file i32 | sizeBytes i64 | replication i64
//	  Ack:        (empty)
//	  Error:      text (rest, UTF-8)
//	  Heartbeat:  rm i32
//	  Keepalive:  request i64
//	  Lookup, RMsWithout, ReplicaCount (FileRef):  file i32
//	  RMs:        (empty; the payload is nil)
//	  RMList:     rms []i32
//	  RMInfoList: infos []RMInfo
//	  Count:      n i64
//	  AddReplica, RemoveReplica (ReplicaRef):  file i32 | rm i32
//	  BeginReplication: file i32 | rm i32 | maxTotal i64
//	  EndReplication:   file i32 | rm i32 | commit bool
//	  RegisterRM: info RMInfo | files []i32
//	  CFP:        request i64 | file i32 | bitrate f64 | durationSec f64 | tenant i32
//	  Bid:        rm i32 | rem f64 | trend f64 | occBias f64 | req f64 |
//	              hasReplica bool | assured f64 | ceil f64 | tenantShare f64
//	  Open:       request i64 | file i32 | bitrate f64 | durationSec f64 |
//	              firm bool | tenant i32
//	  OpenResult: ok bool | reason (rest, UTF-8)
//	  Close:      request i64
//	  StoreFile:  file i32 | bitrate f64 | sizeBytes i64 | durationSec f64 | tenant i32
//	  OfferReplica: replication i64 | file i32 | sizeBytes i64 | bitrate f64 |
//	              durationSec f64 | rate f64 | source i32
//	  OfferReply: accepted bool
//	  FinishReplica: replication i64 | committed bool
//	where RMInfo is  id i32 | capacity f64 | storageBytes i64 | addr str
//
// A zero count decodes to nil (as gob decodes an empty slice), and every
// decoded payload is the value type gob returns for the kind, so
// receivers type-assert payloads without knowing the codec. A count is
// checked against the remaining body before anything is allocated; a
// short body, a leftover byte or a bool byte above 1 is a CodecError.
//
// Traced binary (tag 2) body layout:
//
//	[0:8]   int64 trace ID (ids.RequestID)
//	[8:16]  uint64 span ID
//	[16:]   a binary-v1 body (kind + payload as above)
//
// Tenant binary (tag 3) body layout — the tenant slot ahead of the trace
// slot, claimed per the same versioning rule when tenancy landed:
//
//	[0:4]   int32 tenant ID (ids.TenantID)
//	[4:12]  int64 trace ID (ids.RequestID; zero = untraced)
//	[12:20] uint64 span ID (zero = untraced)
//	[20:]   a binary-v1 body (kind + payload as above)
//
// A tag-3 frame always carries both slots: a connection stamped with a
// tenant (Conn.SetTenant) sends every eligible frame as tag 3 whether or
// not it is traced, with a zero trace slot meaning "untraced", so the
// data plane never branches per frame on trace presence.
//
// ShardBeat, ShardMirror and ShardHandoff have no binary layout and stay
// on gob (which carries the trace slot and tenant as optional Msg fields
// instead). Versioning: a layout, once shipped, never changes in place —
// a change claims a new codec tag (as the trace slot did with tag 2 and
// the tenant slot with tag 3), so mixed-version peers fail with a typed
// CodecError instead of silently misparsing. Giving an uncovered kind its
// first layout is not a layout change: the kind joins v1 (and tags 2 and
// 3), and a reader that predates it rejects it by kind with the same
// CodecError it returns for every uncovered kind.
//
// Buffer ownership: encode and decode both borrow scratch buffers from a
// sync.Pool. On the read side, a fast-path FileChunk's Data slice points
// INTO the pooled frame buffer; the Msg carries the loan and Msg.Release
// returns it. See Msg.Release for the contract.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// Codec identifies a frame-body encoding (the one-byte tag in the frame
// header).
type Codec uint8

// The wire codecs. CodecGob is the universal fallback; CodecBinary is
// fast-path binary v1; CodecBinaryTraced is binary v1 carrying a
// 16-byte trace slot ahead of the kind field; CodecBinaryTenant is
// binary v1 carrying a 4-byte tenant slot and the 16-byte trace slot
// (see below). Per the versioning rule, each slot got its own tag
// instead of mutating v1's layout in place.
const (
	CodecGob          Codec = 0
	CodecBinary       Codec = 1
	CodecBinaryTraced Codec = 2
	CodecBinaryTenant Codec = 3
)

// String implements fmt.Stringer for diagnostics.
func (c Codec) String() string {
	switch c {
	case CodecGob:
		return "gob"
	case CodecBinary:
		return "binary"
	case CodecBinaryTraced:
		return "binary-traced"
	case CodecBinaryTenant:
		return "binary-tenant"
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// CodecError reports a frame that could not be decoded — or would not be
// accepted — under the codec its header declares: an unknown codec tag, a
// binary frame sent to a gob-only endpoint, a kind the binary codec does
// not cover, or a body whose length contradicts the kind's fixed layout.
// Match it with
//
//	var ce *wire.CodecError
//	if errors.As(err, &ce) { ... }
//
// The connection is still frame-synchronized after a CodecError (the
// whole body was consumed), but callers should treat it as a protocol
// mismatch and drop the connection.
type CodecError struct {
	// Codec is the tag the offending frame declared.
	Codec Codec
	// Kind is the message kind, when the decoder got far enough to read
	// it (zero otherwise).
	Kind Kind
	// Reason is the human-readable diagnostic.
	Reason string
}

// Error implements error.
func (e *CodecError) Error() string {
	if e.Kind != 0 {
		return fmt.Sprintf("wire: codec %v, kind %v: %s", e.Codec, e.Kind, e.Reason)
	}
	return fmt.Sprintf("wire: codec %v: %s", e.Codec, e.Reason)
}

// defaultFastPath and defaultAcceptBinary seed every NewConn from the
// build-tag default (see fastpath_on.go / fastpath_off.go). Tests and
// benchmarks flip the write-side default to measure the gob baseline.
var (
	defaultFastPath     atomic.Bool
	defaultAcceptBinary atomic.Bool
)

func init() {
	defaultFastPath.Store(buildFastPath)
	defaultAcceptBinary.Store(buildFastPath)
}

// SetDefaultFastPath sets whether connections created from now on encode
// eligible frames with the binary codec (true, the non-gobonly build
// default) or keep everything on gob (false). It returns the previous
// default. Existing connections are unaffected; read-side acceptance is
// untouched. It exists for baseline benchmarks and build-parity tests.
func SetDefaultFastPath(on bool) (prev bool) {
	return defaultFastPath.Swap(on)
}

// frame geometry.
const (
	// headerSize is the fixed frame prelude: 4-byte big-endian body
	// length followed by the 1-byte codec tag. The length excludes the
	// prelude itself.
	headerSize = 5
	// kindSize is the binary-codec kind field at the start of the body.
	kindSize = 2
	// traceSize is the fixed trace slot a CodecBinaryTraced body starts
	// with: trace ID (int64, an ids.RequestID) + span ID (uint64), both
	// big-endian. The slot precedes the kind field, so the rest of the
	// body is exactly a binary-v1 body.
	traceSize = 16
	// tenantSize is the fixed tenant slot a CodecBinaryTenant body
	// starts with: the tenant ID (int32), big-endian, ahead of the trace
	// slot.
	tenantSize = 4
	// chunkPrefixLen is everything in a binary FileChunk frame before
	// the data bytes: header + kind + offset.
	chunkPrefixLen = headerSize + kindSize + 8
	// tracedChunkPrefixLen is the same prefix with the trace slot
	// between the header and the kind field (tag 2 frames).
	tracedChunkPrefixLen = headerSize + traceSize + kindSize + 8
	// tenantChunkPrefixLen is the tag-3 prefix: tenant slot, then trace
	// slot, then kind + offset.
	tenantChunkPrefixLen = headerSize + tenantSize + traceSize + kindSize + 8
)

// bufPool recycles frame-sized scratch buffers across Write and Read.
// Entries are *[]byte so Put does not allocate a slice header.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledBuf caps the capacity returned to the pool: data-plane frames
// (≤ 256 KiB chunks) always recycle, while a rare near-MaxFrame frame is
// left to the GC instead of pinning megabytes per P.
const maxPooledBuf = 512 * 1024

// getBuf returns a pooled buffer with capacity ≥ n and length 0.
func getBuf(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	return bp
}

// putBuf returns a buffer to the pool (oversized ones go to the GC).
func putBuf(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// chunkPool recycles the FileChunk payload structs the fast-path decoder
// hands out, so a steady-state stream loop performs zero allocations per
// chunk. Msg.Release feeds it.
var chunkPool = sync.Pool{New: func() any { return new(FileChunk) }}

// readReqPool recycles the ReadFile structs ranged fast-path requests
// decode into: a striped read issues one request per segment, so the
// request decode must stay off the per-segment allocation budget the
// same way chunks do. Msg.Release feeds it. Legacy 28-byte bodies keep
// decoding to a plain ReadFile value (callers compare those payloads by
// interface equality).
var readReqPool = sync.Pool{New: func() any { return new(ReadFile) }}

// chunkFrame is the reusable scratch for a single-writev chunk write: the
// frame prefix (15 bytes untraced, 31 with the trace slot, 35 with the
// tenant + trace slots) plus a two-element net.Buffers that lets the data
// slice go to the kernel without being copied into a contiguous frame.
// bufs is rebuilt from arr on every use because Buffers.WriteTo consumes
// the slice it writes (advancing it to zero length AND zero capacity) —
// an append into the consumed slice would reallocate per call.
type chunkFrame struct {
	prefix [tenantChunkPrefixLen]byte
	arr    [2][]byte
	bufs   net.Buffers
}

var chunkFramePool = sync.Pool{New: func() any { return new(chunkFrame) }}

// WriteChunk sends one FileChunk frame. On the fast path it is the
// zero-allocation hot loop of every data stream: the 15-byte prefix and
// the caller's data slice go out as a single writev (net.Buffers), so
// each chunk costs one syscall and zero copies. data is only read, never
// retained, so the caller may reuse its buffer immediately. With the fast
// path disabled it degrades to the gob frame Write would produce.
func (c *Conn) WriteChunk(offset int64, data []byte) error {
	if !c.fastWrite.Load() {
		return c.writeGob(KindFileChunk, FileChunk{Offset: offset, Data: data})
	}
	if t := c.tenantID(); t.Valid() {
		return c.writeChunkTenant(t, trace.SpanContext{}, offset, data)
	}
	body := kindSize + 8 + len(data)
	if body > MaxFrame {
		return &FrameTooLargeError{Kind: KindFileChunk, Size: int64(body), Cap: MaxFrame, Outgoing: true}
	}
	f := chunkFramePool.Get().(*chunkFrame)
	binary.BigEndian.PutUint32(f.prefix[0:4], uint32(body))
	f.prefix[4] = byte(CodecBinary)
	binary.BigEndian.PutUint16(f.prefix[5:7], uint16(KindFileChunk))
	binary.BigEndian.PutUint64(f.prefix[7:15], uint64(offset))
	if err := c.writevChunk(f, f.prefix[:chunkPrefixLen], data); err != nil {
		return err
	}
	codecMet.Load().txBinary.Inc()
	return nil
}

// WriteChunkTraced is WriteChunk with the span context tc in the frame's
// trace slot (codec tag 2), so the serving RM's stream span and the
// client's segment span share one trace. A zero tc degrades to the
// untraced WriteChunk; the traced path keeps the zero-allocation
// single-writev contract (the trace slot lives in the pooled prefix).
func (c *Conn) WriteChunkTraced(tc trace.SpanContext, offset int64, data []byte) error {
	if !tc.Valid() {
		return c.WriteChunk(offset, data)
	}
	if !c.fastWrite.Load() {
		return c.writeGobMsg(Msg{Kind: KindFileChunk, Payload: FileChunk{Offset: offset, Data: data}, Trace: tc})
	}
	if t := c.tenantID(); t.Valid() {
		return c.writeChunkTenant(t, tc, offset, data)
	}
	body := traceSize + kindSize + 8 + len(data)
	if body > MaxFrame {
		return &FrameTooLargeError{Kind: KindFileChunk, Size: int64(body), Cap: MaxFrame, Outgoing: true}
	}
	f := chunkFramePool.Get().(*chunkFrame)
	binary.BigEndian.PutUint32(f.prefix[0:4], uint32(body))
	f.prefix[4] = byte(CodecBinaryTraced)
	binary.BigEndian.PutUint64(f.prefix[5:13], uint64(int64(tc.Trace)))
	binary.BigEndian.PutUint64(f.prefix[13:21], tc.Span)
	binary.BigEndian.PutUint16(f.prefix[21:23], uint16(KindFileChunk))
	binary.BigEndian.PutUint64(f.prefix[23:31], uint64(offset))
	if err := c.writevChunk(f, f.prefix[:tracedChunkPrefixLen], data); err != nil {
		return err
	}
	codecMet.Load().txTraced.Inc()
	return nil
}

// WriteReadReq sends one (possibly ranged) ReadFile request. It is the
// per-segment control frame of a striped read, so the fast path keeps it
// at zero allocations: the payload rides a pooled *ReadFile, and boxing a
// pointer into the payload interface does not allocate the way boxing the
// 5-field struct value would. A zero tc degrades to the untraced frame;
// with the fast path disabled it degrades to the gob frame Write would
// produce (gob sees the plain value — pointers need no registration).
func (c *Conn) WriteReadReq(tc trace.SpanContext, req ReadFile) error {
	if !c.fastWrite.Load() {
		return c.writeGobMsg(Msg{Kind: KindReadFile, Payload: req, Trace: tc})
	}
	rq := readReqPool.Get().(*ReadFile)
	*rq = req
	err := c.WriteTraced(tc, KindReadFile, rq)
	*rq = ReadFile{}
	readReqPool.Put(rq)
	return err
}

// writeChunkTenant sends one FileChunk frame under codec tag 3: the
// tenant slot, the trace slot (zero when untraced), then the binary-v1
// chunk body. Same pooled single-writev discipline as the untagged
// paths, so a tenant-stamped connection's data plane stays at zero
// allocations per chunk.
func (c *Conn) writeChunkTenant(t ids.TenantID, tc trace.SpanContext, offset int64, data []byte) error {
	body := tenantSize + traceSize + kindSize + 8 + len(data)
	if body > MaxFrame {
		return &FrameTooLargeError{Kind: KindFileChunk, Size: int64(body), Cap: MaxFrame, Outgoing: true}
	}
	f := chunkFramePool.Get().(*chunkFrame)
	binary.BigEndian.PutUint32(f.prefix[0:4], uint32(body))
	f.prefix[4] = byte(CodecBinaryTenant)
	binary.BigEndian.PutUint32(f.prefix[5:9], uint32(int32(t)))
	binary.BigEndian.PutUint64(f.prefix[9:17], uint64(int64(tc.Trace)))
	binary.BigEndian.PutUint64(f.prefix[17:25], tc.Span)
	binary.BigEndian.PutUint16(f.prefix[25:27], uint16(KindFileChunk))
	binary.BigEndian.PutUint64(f.prefix[27:35], uint64(offset))
	if err := c.writevChunk(f, f.prefix[:tenantChunkPrefixLen], data); err != nil {
		return err
	}
	codecMet.Load().txTenant.Inc()
	return nil
}

// writevChunk pushes prefix+data as a single writev under the write lock
// and returns f to the pool.
func (c *Conn) writevChunk(f *chunkFrame, prefix, data []byte) error {
	f.arr[0] = prefix
	f.arr[1] = data
	f.bufs = net.Buffers(f.arr[:])
	c.wmu.Lock()
	c.armWriteDeadlineLocked()
	_, err := f.bufs.WriteTo(c.rw)
	c.wmu.Unlock()
	// Drop the data references before pooling so the pool does not pin the
	// caller's buffer (WriteTo consumes bufs but arr keeps the originals).
	f.arr[0], f.arr[1] = nil, nil
	f.bufs = nil
	chunkFramePool.Put(f)
	if err != nil {
		return fmt.Errorf("wire: writing %v frame: %w", KindFileChunk, err)
	}
	return nil
}

// appendBinary appends the binary-v1 body (kind + payload) for one
// eligible (kind, payload) pair to b. It reports false when the pair is
// not fast-path encodable, leaving b's length unchanged. The payload's
// dynamic type selects the layout and must be the one decodeBinary
// returns for kind, so the two stay each other's inverse.
func appendBinary(b []byte, kind Kind, payload any) ([]byte, bool) {
	start := len(b)
	b = put16(b, uint16(kind))
	var ok bool
	switch p := payload.(type) {
	case nil:
		ok = kind == KindRMs
	case Ack:
		ok = kind == KindAck
	case Error:
		ok = kind == KindError
		b = append(b, p.Text...)
	case FileEnd:
		ok = kind == KindFileEnd
		b = put64(b, uint64(p.Size))
		b = put64(b, p.Checksum)
	case ReadFile:
		ok = kind == KindReadFile
		b = appendReadFile(b, &p)
	case *ReadFile:
		// WriteReadReq sends a pooled pointer so the interface
		// conversion never allocates.
		ok = kind == KindReadFile
		b = appendReadFile(b, p)
	case WriteFile:
		ok = kind == KindWriteFile
		b = put32(b, uint32(p.File))
		b = put64(b, uint64(p.SizeBytes))
		b = put64(b, uint64(p.Replication))
	case Heartbeat:
		ok = kind == KindHeartbeat
		b = put32(b, uint32(p.RM))
	case Keepalive:
		ok = kind == KindKeepalive
		b = put64(b, uint64(p.Request))
	case FileRef:
		ok = kind == KindLookup || kind == KindRMsWithout || kind == KindReplicaCount
		b = put32(b, uint32(p.File))
	case ReplicaRef:
		ok = kind == KindAddReplica || kind == KindRemoveReplica
		b = put32(b, uint32(p.File))
		b = put32(b, uint32(p.RM))
	case BeginReplication:
		ok = kind == KindBeginReplication
		b = put32(b, uint32(p.File))
		b = put32(b, uint32(p.RM))
		b = put64(b, uint64(p.MaxTotal))
	case EndReplication:
		ok = kind == KindEndReplication
		b = put32(b, uint32(p.File))
		b = put32(b, uint32(p.RM))
		b = putBool(b, p.Commit)
	case RegisterRM:
		ok = kind == KindRegisterRM
		b = putRMInfo(b, p.Info)
		b = putIDs(b, p.Files)
	case RMList:
		ok = kind == KindRMList
		b = putIDs(b, p.RMs)
	case RMInfoList:
		ok = kind == KindRMInfoList
		b = put32(b, uint32(len(p.Infos)))
		for _, in := range p.Infos {
			b = putRMInfo(b, in)
		}
	case Count:
		ok = kind == KindCount
		b = put64(b, uint64(p.N))
	case ecnp.CFP:
		ok = kind == KindCFP
		b = put64(b, uint64(p.Request))
		b = put32(b, uint32(p.File))
		b = putF64(b, float64(p.Bitrate))
		b = putF64(b, p.DurationSec)
		b = put32(b, uint32(p.Tenant))
	case selection.Bid:
		ok = kind == KindBid
		b = put32(b, uint32(p.RM))
		b = putF64(b, float64(p.Rem))
		b = putF64(b, p.Trend)
		b = putF64(b, p.OccBias)
		b = putF64(b, float64(p.Req))
		b = putBool(b, p.HasReplica)
		b = putF64(b, float64(p.Assured))
		b = putF64(b, float64(p.Ceil))
		b = putF64(b, p.TenantShare)
	case ecnp.OpenRequest:
		ok = kind == KindOpen
		b = put64(b, uint64(p.Request))
		b = put32(b, uint32(p.File))
		b = putF64(b, float64(p.Bitrate))
		b = putF64(b, p.DurationSec)
		b = putBool(b, p.Firm)
		b = put32(b, uint32(p.Tenant))
	case ecnp.OpenResult:
		ok = kind == KindOpenResult
		b = putBool(b, p.OK)
		b = append(b, p.Reason...)
	case CloseReq:
		ok = kind == KindClose
		b = put64(b, uint64(p.Request))
	case ecnp.StoreRequest:
		ok = kind == KindStoreFile
		b = put32(b, uint32(p.File))
		b = putF64(b, float64(p.Bitrate))
		b = put64(b, uint64(p.SizeBytes))
		b = putF64(b, p.DurationSec)
		b = put32(b, uint32(p.Tenant))
	case ecnp.ReplicaOffer:
		ok = kind == KindOfferReplica
		b = put64(b, uint64(p.Replication))
		b = put32(b, uint32(p.File))
		b = put64(b, uint64(p.SizeBytes))
		b = putF64(b, float64(p.Bitrate))
		b = putF64(b, p.DurationSec)
		b = putF64(b, float64(p.Rate))
		b = put32(b, uint32(p.Source))
	case OfferReply:
		ok = kind == KindOfferReply
		b = putBool(b, p.Accepted)
	case FinishReplica:
		ok = kind == KindFinishReplica
		b = put64(b, uint64(p.Replication))
		b = putBool(b, p.Committed)
	}
	if !ok {
		return b[:start], false
	}
	return b, true
}

// appendReadFile appends the ReadFile layout. The length field is
// appended only for ranged reads, keeping whole-file request frames
// byte-identical to the pre-ranged layout (see the layout table at the
// top of this file).
func appendReadFile(b []byte, p *ReadFile) []byte {
	b = put32(b, uint32(p.File))
	b = put64(b, uint64(p.ChunkSize))
	b = put64(b, uint64(p.Offset))
	b = put64(b, uint64(p.Request))
	if p.Length > 0 {
		b = put64(b, uint64(p.Length))
	}
	return b
}

// rmInfoMin is the smallest encoded RMInfo: id, capacity, storage and an
// empty address's length prefix.
const rmInfoMin = 4 + 8 + 8 + 4

func put16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func put32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func put64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// putF64 writes the IEEE-754 bits, so NaN payloads and −0 survive.
func putF64(b []byte, f float64) []byte { return put64(b, math.Float64bits(f)) }

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// putStr writes a u32-length-prefixed string (for strings that are not
// the body's tail).
func putStr(b []byte, s string) []byte { return append(put32(b, uint32(len(s))), s...) }

func putRMInfo(b []byte, in ecnp.RMInfo) []byte {
	b = put32(b, uint32(in.ID))
	b = putF64(b, float64(in.Capacity))
	b = put64(b, uint64(in.StorageBytes))
	return putStr(b, in.Addr)
}

// putIDs writes a u32 element count followed by each 32-bit id.
func putIDs[T ~int32](b []byte, s []T) []byte {
	b = put32(b, uint32(len(s)))
	for _, v := range s {
		b = put32(b, uint32(v))
	}
	return b
}

// reader is a bounds-checked big-endian cursor over a binary-v1 payload.
// The first read past the end (or a bool byte other than 0/1, or a
// count the remaining bytes cannot hold) sets bad; every later read
// returns a zero value. A decoder therefore reads one field per line and
// checks bad — and that nothing is left over — once at the end.
type reader struct {
	p   []byte
	bad bool
}

// take consumes n bytes, or marks the reader bad.
func (r *reader) take(n int) []byte {
	if r.bad || n > len(r.p) {
		r.bad = true
		return nil
	}
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

func (r *reader) u32() uint32 {
	if b := r.take(4); !r.bad {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); !r.bad {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (r *reader) i32() int32         { return int32(r.u32()) }
func (r *reader) i64() int64         { return int64(r.u64()) }
func (r *reader) f64() float64       { return math.Float64frombits(r.u64()) }
func (r *reader) rmID() ids.RMID     { return ids.RMID(r.i32()) }
func (r *reader) fileID() ids.FileID { return ids.FileID(r.i32()) }

// flag reads a bool byte; anything but 0 or 1 is malformed, so every
// accepted body re-encodes to the same bytes.
func (r *reader) flag() bool {
	b := r.take(1)
	if r.bad {
		return false
	}
	if b[0] > 1 {
		r.bad = true
	}
	return b[0] == 1
}

// str reads a u32-length-prefixed string.
func (r *reader) str() string { return string(r.take(r.count(1))) }

// tail consumes the rest of the payload as a string.
func (r *reader) tail() string { return string(r.take(len(r.p))) }

// count reads a u32 element count and checks that the remaining payload
// can hold that many elements of at least min bytes each, before the
// caller allocates anything.
func (r *reader) count(min int) int {
	n := uint64(r.u32())
	if r.bad || n*uint64(min) > uint64(len(r.p)) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *reader) rmInfo() ecnp.RMInfo {
	return ecnp.RMInfo{
		ID:           r.rmID(),
		Capacity:     units.BytesPerSec(r.f64()),
		StorageBytes: units.Size(r.i64()),
		Addr:         r.str(),
	}
}

// readIDs reads a counted slice of 32-bit ids. A zero count decodes to
// nil, as gob decodes an empty slice.
func readIDs[T ~int32](r *reader) []T {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = T(r.i32())
	}
	return s
}

// rmInfos reads a counted RMInfo slice (nil for a zero count).
func (r *reader) rmInfos() []ecnp.RMInfo {
	n := r.count(rmInfoMin)
	if n == 0 {
		return nil
	}
	s := make([]ecnp.RMInfo, n)
	for i := range s {
		s[i] = r.rmInfo()
	}
	return s
}

// decodeBinary parses a binary-v1 body that arrived under codec (the
// frame's tag, reported in any CodecError). bp is the pooled buffer
// backing body; when the decoded payload borrows from it (FileChunk keeps
// its Data in place instead of copying), the returned Msg carries the
// loan and retained is true — the caller must NOT putBuf it, Msg.Release
// will. Every other payload is copied out, and is the same value type
// the gob codec decodes for that kind. Hostile input (short or long
// bodies, oversized counts, bool bytes other than 0/1, kinds the codec
// does not cover) yields a typed *CodecError, never a panic.
func decodeBinary(codec Codec, body []byte, bp *[]byte) (msg Msg, retained bool, err error) {
	if len(body) < kindSize {
		return Msg{}, false, &CodecError{Codec: codec, Reason: "body shorter than kind field"}
	}
	kind := Kind(binary.BigEndian.Uint16(body[:kindSize]))
	p := body[kindSize:]
	badLen := func() (Msg, bool, error) {
		return Msg{}, false, &CodecError{Codec: codec, Kind: kind,
			Reason: fmt.Sprintf("payload length %d contradicts fixed layout", len(p))}
	}
	r := reader{p: p}
	var v any
	switch kind {
	case KindFileChunk:
		if len(p) < 8 {
			return badLen()
		}
		ch := chunkPool.Get().(*FileChunk)
		ch.Offset = int64(binary.BigEndian.Uint64(p[:8]))
		ch.Data = p[8:]
		return Msg{Kind: kind, Payload: ch, pooled: bp, chunk: ch}, true, nil
	case KindReadFile:
		rf := ReadFile{
			File:      r.fileID(),
			ChunkSize: int(r.i64()),
			Offset:    r.i64(),
			Request:   ids.RequestID(r.i64()),
		}
		if r.bad {
			return badLen()
		}
		switch len(r.p) {
		case 0: // legacy whole-file layout: decode to a plain value
			v = rf
		case 8: // ranged layout with the trailing length field
			rq := readReqPool.Get().(*ReadFile)
			*rq = rf
			rq.Length = r.i64()
			return Msg{Kind: kind, Payload: rq, rreq: rq}, false, nil
		default:
			return badLen()
		}
	case KindFileEnd:
		v = FileEnd{Size: r.i64(), Checksum: r.u64()}
	case KindWriteFile:
		v = WriteFile{File: r.fileID(), SizeBytes: r.i64(), Replication: ids.ReplicationID(r.i64())}
	case KindAck:
		v = Ack{}
	case KindError:
		v = Error{Text: r.tail()}
	case KindHeartbeat:
		v = Heartbeat{RM: r.rmID()}
	case KindKeepalive:
		v = Keepalive{Request: ids.RequestID(r.i64())}
	case KindLookup, KindRMsWithout, KindReplicaCount:
		v = FileRef{File: r.fileID()}
	case KindRMs:
		v = nil
	case KindAddReplica, KindRemoveReplica:
		v = ReplicaRef{File: r.fileID(), RM: r.rmID()}
	case KindBeginReplication:
		v = BeginReplication{File: r.fileID(), RM: r.rmID(), MaxTotal: int(r.i64())}
	case KindEndReplication:
		v = EndReplication{File: r.fileID(), RM: r.rmID(), Commit: r.flag()}
	case KindRegisterRM:
		v = RegisterRM{Info: r.rmInfo(), Files: readIDs[ids.FileID](&r)}
	case KindRMList:
		v = RMList{RMs: readIDs[ids.RMID](&r)}
	case KindRMInfoList:
		v = RMInfoList{Infos: r.rmInfos()}
	case KindCount:
		v = Count{N: int(r.i64())}
	case KindCFP:
		v = ecnp.CFP{
			Request:     ids.RequestID(r.i64()),
			File:        r.fileID(),
			Bitrate:     units.BytesPerSec(r.f64()),
			DurationSec: r.f64(),
			Tenant:      ids.TenantID(r.i32()),
		}
	case KindBid:
		v = selection.Bid{
			RM:          r.rmID(),
			Rem:         units.BytesPerSec(r.f64()),
			Trend:       r.f64(),
			OccBias:     r.f64(),
			Req:         units.BytesPerSec(r.f64()),
			HasReplica:  r.flag(),
			Assured:     units.BytesPerSec(r.f64()),
			Ceil:        units.BytesPerSec(r.f64()),
			TenantShare: r.f64(),
		}
	case KindOpen:
		v = ecnp.OpenRequest{
			Request:     ids.RequestID(r.i64()),
			File:        r.fileID(),
			Bitrate:     units.BytesPerSec(r.f64()),
			DurationSec: r.f64(),
			Firm:        r.flag(),
			Tenant:      ids.TenantID(r.i32()),
		}
	case KindOpenResult:
		v = ecnp.OpenResult{OK: r.flag(), Reason: r.tail()}
	case KindClose:
		v = CloseReq{Request: ids.RequestID(r.i64())}
	case KindStoreFile:
		v = ecnp.StoreRequest{
			File:        r.fileID(),
			Bitrate:     units.BytesPerSec(r.f64()),
			SizeBytes:   units.Size(r.i64()),
			DurationSec: r.f64(),
			Tenant:      ids.TenantID(r.i32()),
		}
	case KindOfferReplica:
		v = ecnp.ReplicaOffer{
			Replication: ids.ReplicationID(r.i64()),
			File:        r.fileID(),
			SizeBytes:   units.Size(r.i64()),
			Bitrate:     units.BytesPerSec(r.f64()),
			DurationSec: r.f64(),
			Rate:        units.BytesPerSec(r.f64()),
			Source:      r.rmID(),
		}
	case KindOfferReply:
		v = OfferReply{Accepted: r.flag()}
	case KindFinishReplica:
		v = FinishReplica{Replication: ids.ReplicationID(r.i64()), Committed: r.flag()}
	default:
		return Msg{}, false, &CodecError{Codec: codec, Kind: kind, Reason: "kind not covered by the binary codec"}
	}
	if r.bad || len(r.p) != 0 {
		return badLen()
	}
	return Msg{Kind: kind, Payload: v}, false, nil
}
