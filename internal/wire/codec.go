// Binary codec for every frame kind. The frame header carries a
// one-byte codec tag, and the tag declares which slots precede the
// binary-v1 body: none (tag 1), a 16-byte trace slot (tag 2), or a 4-byte
// tenant slot and then the trace slot (tag 3). The tags interleave freely
// on one connection — the reader dispatches per frame, and no frame
// leaves cross-frame state, so a corrupted frame cannot poison the next.
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
//	              to the pre-ranged layout; the decoder accepts both lengths
//	              and refuses a trailing length that is not positive)
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
//	  ShardBeat:  shard i32
//	  ShardMirror: op str | file i32 | rm i32 | maxTotal i64 | commit bool
//	  ShardHandoff: from i32 | direction str | infos []RMInfo |
//	              entries []{file i32 | rms []i32}
//	where RMInfo is  id i32 | capacity f64 | storageBytes i64 | addr str
//
// A zero count decodes to nil, and every decoded payload is a value of
// the type the sender passed (FileChunk and ranged ReadFile excepted:
// they decode to pooled pointers), so receivers type-assert payloads
// directly. A count is checked against the remaining body before
// anything is allocated; a short body, a leftover byte or a bool byte
// above 1 is a CodecError. Every accepted body re-encodes to the same
// bytes.
//
// Slot layouts, ahead of the binary-v1 body:
//
//	tag 1:  (none)
//	tag 2:  [0:8] int64 trace ID (ids.RequestID) | [8:16] uint64 span ID
//	tag 3:  [0:4] int32 tenant ID (ids.TenantID) | [4:20] the tag-2 trace slot
//
// A tag-3 frame always carries both slots: a connection stamped with a
// tenant (Conn.SetTenant) sends every frame as tag 3 whether or not it is
// traced, with a zero trace slot meaning "untraced", so the data plane
// never branches per frame on trace presence.
//
// Versioning — reject by tag, with no lingua franca: a layout, once
// shipped, never changes in place. A change claims a new codec tag (as
// the trace slot did with tag 2 and the tenant slot with tag 3), so a
// peer that predates it fails with a typed CodecError instead of
// silently misparsing. A new kind joins v1 (and tags 2 and 3), and a
// reader that predates it rejects it by kind with the same CodecError.
// Tag 0, the reflective gob envelope older peers sent, is such an
// unknown tag now.
//
// Buffer ownership: encode and decode both borrow scratch buffers from a
// sync.Pool. On the read side, a FileChunk's Data slice points INTO the
// pooled frame buffer; the Msg carries the loan and Msg.Release returns
// it. See Msg.Release for the contract.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// Codec identifies a frame-body encoding (the one-byte tag in the frame
// header).
type Codec uint8

// The wire codecs: binary v1 with no slots, with the trace slot, and
// with the tenant and trace slots. Per the versioning rule each slot got
// its own tag instead of mutating v1's layout in place.
const (
	CodecBinary       Codec = 1
	CodecBinaryTraced Codec = 2
	CodecBinaryTenant Codec = 3
)

// codecNames holds the names Codec.String and the frame counters use.
var codecNames = [...]string{
	CodecBinary:       "binary",
	CodecBinaryTraced: "binary-traced",
	CodecBinaryTenant: "binary-tenant",
}

// String implements fmt.Stringer for diagnostics.
func (c Codec) String() string {
	if int(c) < len(codecNames) && codecNames[c] != "" {
		return codecNames[c]
	}
	return fmt.Sprintf("codec(%d)", uint8(c))
}

// slotSize returns the slot bytes a codec tag declares ahead of the
// binary-v1 body, and false for a tag this reader does not know.
func slotSize(c Codec) (int, bool) {
	switch c {
	case CodecBinary:
		return 0, true
	case CodecBinaryTraced:
		return traceSize, true
	case CodecBinaryTenant:
		return tenantSize + traceSize, true
	}
	return 0, false
}

// CodecError reports a frame that could not be encoded, or could not be
// decoded under the codec its header declares: a (kind, payload) pair
// with no binary layout on the write side; an unknown codec tag, a kind
// the reader does not know, or a body whose length contradicts the
// kind's layout on the read side. Match it with
//
//	var ce *wire.CodecError
//	if errors.As(err, &ce) { ... }
//
// A write that fails with a CodecError sends nothing. A read that fails
// with one leaves the connection frame-synchronized (the whole body was
// consumed), but callers should treat it as a protocol mismatch and drop
// the connection.
type CodecError struct {
	// Codec is the tag the offending frame declared (or would have).
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

// frame geometry.
const (
	// headerSize is the fixed frame prelude: 4-byte big-endian body
	// length followed by the 1-byte codec tag. The length excludes the
	// prelude itself.
	headerSize = 5
	// kindSize is the binary-codec kind field at the start of the body.
	kindSize = 2
	// traceSize is the trace slot tags 2 and 3 carry: trace ID (int64,
	// an ids.RequestID) + span ID (uint64), both big-endian.
	traceSize = 16
	// tenantSize is the tenant slot tag 3 carries ahead of the trace
	// slot: the tenant ID (int32), big-endian.
	tenantSize = 4
	// tracedChunkPrefixLen is everything in a tag-2 FileChunk frame
	// before the data bytes: header, trace slot, kind and offset.
	tracedChunkPrefixLen = headerSize + traceSize + kindSize + 8
	// maxChunkPrefixLen is the longest chunk prefix, tag 3's: the tenant
	// slot on top of tracedChunkPrefixLen.
	maxChunkPrefixLen = tenantSize + tracedChunkPrefixLen
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

// chunkPool recycles the FileChunk payload structs the decoder hands
// out, so a steady-state stream loop performs zero allocations per
// chunk. Msg.Release feeds it.
var chunkPool = sync.Pool{New: func() any { return new(FileChunk) }}

// readReqPool recycles the ReadFile structs ranged requests decode into:
// a striped read issues one request per segment, so the request decode
// must stay off the per-segment allocation budget the same way chunks
// do. Msg.Release feeds it. Whole-file (28-byte) bodies decode to a
// plain ReadFile value.
var readReqPool = sync.Pool{New: func() any { return new(ReadFile) }}

// chunkFrame is the reusable scratch for a single-writev chunk write: the
// frame prefix (15 bytes untraced, 31 with the trace slot, 35 with the
// tenant + trace slots) plus a two-element net.Buffers that lets the data
// slice go to the kernel without being copied into a contiguous frame.
// bufs is rebuilt from arr on every use because Buffers.WriteTo consumes
// the slice it writes (advancing it to zero length AND zero capacity) —
// an append into the consumed slice would reallocate per call.
type chunkFrame struct {
	prefix [maxChunkPrefixLen]byte
	arr    [2][]byte
	bufs   net.Buffers
}

var chunkFramePool = sync.Pool{New: func() any { return new(chunkFrame) }}

// appendHeader appends a frame header — a length placeholder the caller
// fills once the body is built, and the codec tag — followed by the
// slots that tag declares. The tag follows the connection and the span
// context: tag 3 on a tenant-stamped connection (trace slot zero when
// untraced), else tag 2 when tc is valid, else tag 1.
func (c *Conn) appendHeader(b []byte, tc trace.SpanContext) ([]byte, Codec) {
	codec, t := CodecBinary, c.tenantID()
	switch {
	case t.Valid():
		codec = CodecBinaryTenant
	case tc.Valid():
		codec = CodecBinaryTraced
	}
	b = append(b, 0, 0, 0, 0, byte(codec))
	switch codec {
	case CodecBinaryTenant:
		b = put32(b, uint32(t))
		fallthrough
	case CodecBinaryTraced:
		b = put64(b, uint64(tc.Trace))
		b = put64(b, tc.Span)
	}
	return b, codec
}

// WriteChunk sends one FileChunk frame carrying the span context tc (zero
// for untraced) and the connection's tenant in the slots its tag
// declares. It is the zero-allocation hot loop of every data stream: the
// prefix is built in a pooled scratch and goes out with the caller's
// data slice as a single writev (net.Buffers), so each chunk costs one
// syscall and zero copies. data is only read, never retained, so the
// caller may reuse its buffer immediately.
func (c *Conn) WriteChunk(tc trace.SpanContext, offset int64, data []byte) error {
	f := chunkFramePool.Get().(*chunkFrame)
	prefix, codec := c.appendHeader(f.prefix[:0], tc)
	prefix = put16(prefix, uint16(KindFileChunk))
	prefix = put64(prefix, uint64(offset))
	body := len(prefix) - headerSize + len(data)
	if body > MaxFrame {
		chunkFramePool.Put(f)
		return &FrameTooLargeError{Kind: KindFileChunk, Size: int64(body), Cap: MaxFrame, Outgoing: true}
	}
	binary.BigEndian.PutUint32(prefix[:4], uint32(body))
	if err := c.writevChunk(f, prefix, data); err != nil {
		return err
	}
	codecMet.Load().tx[codec].Inc()
	return nil
}

// WriteReadReq sends one (possibly ranged) ReadFile request. It is the
// per-segment control frame of a striped read, so it stays at zero
// allocations: the payload rides a pooled *ReadFile, and boxing a
// pointer into the payload interface does not allocate the way boxing
// the 5-field struct value would. A zero tc sends an untraced frame.
func (c *Conn) WriteReadReq(tc trace.SpanContext, req ReadFile) error {
	rq := readReqPool.Get().(*ReadFile)
	*rq = req
	err := c.WriteTraced(tc, KindReadFile, rq)
	*rq = ReadFile{}
	readReqPool.Put(rq)
	return err
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
// (kind, payload) pair to b. It reports false when the pair has no
// layout, leaving b's length unchanged. The payload's
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
		b = putRMInfos(b, p.Infos)
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
	case ShardBeat:
		ok = kind == KindShardBeat
		b = put32(b, uint32(p.Shard))
	case ShardMirror:
		ok = kind == KindShardMirror
		b = putStr(b, p.Op)
		b = put32(b, uint32(p.File))
		b = put32(b, uint32(p.RM))
		b = put64(b, uint64(p.MaxTotal))
		b = putBool(b, p.Commit)
	case ShardHandoff:
		ok = kind == KindShardHandoff
		b = put32(b, uint32(p.From))
		b = putStr(b, p.Direction)
		b = putRMInfos(b, p.Infos)
		b = put32(b, uint32(len(p.Entries)))
		for _, e := range p.Entries {
			b = put32(b, uint32(e.File))
			b = putIDs(b, e.RMs)
		}
	case FileChunk:
		// Write sends chunks through WriteChunk's writev; this copying
		// form serves WriteTorn.
		ok = kind == KindFileChunk
		b = put64(b, uint64(p.Offset))
		b = append(b, p.Data...)
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

// putRMInfos writes a u32 element count followed by each RMInfo.
func putRMInfos(b []byte, s []ecnp.RMInfo) []byte {
	b = put32(b, uint32(len(s)))
	for _, in := range s {
		b = putRMInfo(b, in)
	}
	return b
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
// nil.
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

// shardEntries reads a counted ShardEntry slice (nil for a zero count).
// An entry is at least a file id and an empty replica list's count.
func (r *reader) shardEntries() []ShardEntry {
	n := r.count(4 + 4)
	if n == 0 {
		return nil
	}
	s := make([]ShardEntry, n)
	for i := range s {
		s[i] = ShardEntry{File: r.fileID(), RMs: readIDs[ids.RMID](r)}
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
// will. Every other payload is copied out. Hostile input (short or long
// bodies, oversized counts, bool bytes other than 0/1, non-canonical
// forms, unknown kinds) yields a typed *CodecError, never a panic.
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
			n := r.i64()
			if n <= 0 {
				// The encoder writes the length only when positive, so
				// this body has no canonical form.
				return Msg{}, false, &CodecError{Codec: codec, Kind: kind,
					Reason: fmt.Sprintf("ranged length %d is not positive", n)}
			}
			rq := readReqPool.Get().(*ReadFile)
			*rq = rf
			rq.Length = n
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
	case KindShardBeat:
		v = ShardBeat{Shard: r.i32()}
	case KindShardMirror:
		v = ShardMirror{Op: r.str(), File: r.fileID(), RM: r.rmID(), MaxTotal: int(r.i64()), Commit: r.flag()}
	case KindShardHandoff:
		v = ShardHandoff{From: r.i32(), Direction: r.str(), Infos: r.rmInfos(), Entries: r.shardEntries()}
	default:
		return Msg{}, false, &CodecError{Codec: codec, Kind: kind, Reason: "unknown kind"}
	}
	if r.bad || len(r.p) != 0 {
		return badLen()
	}
	return Msg{Kind: kind, Payload: v}, false, nil
}
