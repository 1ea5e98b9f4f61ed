// Package wire frames the ECNP protocol messages for TCP transport: each
// frame is a 4-byte big-endian body length, a 1-byte codec tag, and the
// body. Every body is hand-rolled binary v1 (see codec.go); the tag
// declares which slots precede it — none (tag 1), a 16-byte request-trace
// slot (tag 2), or a 4-byte tenant slot and the trace slot (tag 3).
// Frames are independent (no cross-frame state), so a connection can be
// taken over after any message boundary, a corrupted frame cannot poison
// the next one, and the tags interleave freely on one connection. A
// frame-size cap bounds memory against malformed peers.
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
)

// MaxFrame bounds a single message, comfortably above the largest data
// chunk (256 KiB) plus headers.
const MaxFrame = 4 << 20

// Kind identifies the message type.
type Kind uint16

// Control-plane and data-plane message kinds.
const (
	KindError Kind = iota
	// Mapper operations (DFSC/RM → MM).
	KindRegisterRM
	KindLookup
	KindRMsWithout
	KindAddReplica
	KindRemoveReplica
	KindBeginReplication
	KindEndReplication
	KindReplicaCount
	KindRMs
	// Mapper replies.
	KindAck
	KindRMList
	KindRMInfoList
	KindCount
	// Provider operations (DFSC/peer RM → RM).
	KindCFP
	KindBid
	KindOpen
	KindOpenResult
	KindClose
	KindOfferReplica
	KindOfferReply
	KindFinishReplica
	KindStoreFile
	// Data plane.
	KindReadFile
	KindFileChunk
	KindFileEnd
	KindWriteFile
	// Liveness (RM → MM) and reservation-lease keepalive (DFSC → RM).
	KindHeartbeat
	KindKeepalive
	// Shard-group control plane (MM shard → MM shard), sent on
	// membership changes and replica-map writes, never per read.
	KindShardBeat
	KindShardMirror
	KindShardHandoff
)

// kindNames is the package-level name table: Kind.String sits on the
// telemetry-label path of every request, so it must not rebuild (or
// allocate) a map per call.
var kindNames = [...]string{
	KindError: "Error", KindRegisterRM: "RegisterRM", KindLookup: "Lookup",
	KindRMsWithout: "RMsWithout", KindAddReplica: "AddReplica",
	KindRemoveReplica: "RemoveReplica", KindReplicaCount: "ReplicaCount",
	KindBeginReplication: "BeginReplication", KindEndReplication: "EndReplication",
	KindRMs: "RMs", KindAck: "Ack", KindRMList: "RMList",
	KindRMInfoList: "RMInfoList", KindCount: "Count", KindCFP: "CFP",
	KindBid: "Bid", KindOpen: "Open", KindOpenResult: "OpenResult",
	KindClose: "Close", KindOfferReplica: "OfferReplica",
	KindOfferReply: "OfferReply", KindFinishReplica: "FinishReplica",
	KindStoreFile: "StoreFile",
	KindReadFile:  "ReadFile", KindFileChunk: "FileChunk", KindFileEnd: "FileEnd",
	KindWriteFile: "WriteFile",
	KindHeartbeat: "Heartbeat", KindKeepalive: "Keepalive",
	KindShardBeat: "ShardBeat", KindShardMirror: "ShardMirror",
	KindShardHandoff: "ShardHandoff",
}

// String implements fmt.Stringer for diagnostics. Known kinds return an
// interned constant (zero allocations).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint16(k))
}

// Msg is one framed message.
type Msg struct {
	Kind    Kind
	Payload any

	// Trace is the span context this frame carries, if any: the zero
	// value means "untraced". It rides the trace slot of tags 2 and 3.
	// Servers join it with trace.Tracer.StartChild.
	Trace trace.SpanContext

	// Tenant is the tenant identity this frame was sent under: the zero
	// value (ids.NoneTenant) means untenanted. It rides the tag-3 tenant
	// slot. Connections stamp it with Conn.SetTenant; servers read it for
	// per-tenant accounting.
	Tenant ids.TenantID

	// pooled is the frame buffer this message's payload borrows from
	// (FileChunk only: Data points into it); chunk is the pooled payload
	// struct. rreq is the pooled ReadFile a ranged request decodes into.
	// All are returned by Release.
	pooled *[]byte
	chunk  *FileChunk
	rreq   *ReadFile
}

// Chunk extracts a FileChunk payload (a pooled *FileChunk). It reports
// false for any other payload.
func (m *Msg) Chunk() (*FileChunk, bool) {
	p, ok := m.Payload.(*FileChunk)
	return p, ok
}

// ReadReq extracts a ReadFile payload regardless of range form:
// whole-file frames decode to a ReadFile value, ranged frames to a
// pooled *ReadFile (returned by Release — the copy handed back here
// stays valid afterwards). It reports false for any other payload.
func (m *Msg) ReadReq() (ReadFile, bool) {
	switch p := m.Payload.(type) {
	case ReadFile:
		return p, true
	case *ReadFile:
		return *p, true
	}
	return ReadFile{}, false
}

// Release returns a message's pooled resources (the frame buffer its
// FileChunk Data points into, and the FileChunk or ranged ReadFile
// struct itself). The borrowed-buffer contract for stream loops:
//
//   - After Read returns a KindFileChunk Msg, the chunk's Data is only
//     valid until Release — copy or consume it first, never retain it.
//   - Call Release exactly once per received chunk when done; the Payload
//     is nilled so use-after-release fails loudly instead of silently
//     reading recycled bytes.
//   - Release on a Msg without pooled resources is a safe no-op, so
//     loops may release unconditionally.
//
// Skipping Release is a performance bug, not a correctness bug: the
// buffers fall to the GC and the stream loop allocates per chunk again.
func (m *Msg) Release() {
	if m.chunk == nil && m.pooled == nil && m.rreq == nil {
		return
	}
	if m.chunk != nil {
		m.chunk.Data = nil
		m.chunk.Offset = 0
		chunkPool.Put(m.chunk)
		m.chunk = nil
	}
	if m.rreq != nil {
		*m.rreq = ReadFile{}
		readReqPool.Put(m.rreq)
		m.rreq = nil
	}
	if m.pooled != nil {
		putBuf(m.pooled)
		m.pooled = nil
	}
	m.Payload = nil
}

// Payload structs not already defined by the ecnp package.
type (
	// RegisterRM carries an RM registration.
	RegisterRM struct {
		Info  ecnp.RMInfo
		Files []ids.FileID
	}
	// FileRef names a file (Lookup, RMsWithout, ReplicaCount, ReadFile).
	FileRef struct {
		File ids.FileID
	}
	// ReplicaRef names a (file, RM) pair (Add/RemoveReplica).
	ReplicaRef struct {
		File ids.FileID
		RM   ids.RMID
	}
	// BeginReplication reserves a pending replica (see ecnp.Mapper).
	BeginReplication struct {
		File     ids.FileID
		RM       ids.RMID
		MaxTotal int
	}
	// EndReplication resolves a reservation.
	EndReplication struct {
		File   ids.FileID
		RM     ids.RMID
		Commit bool
	}
	// RMList answers Lookup and RMsWithout.
	RMList struct {
		RMs []ids.RMID
	}
	// RMInfoList answers RMs.
	RMInfoList struct {
		Infos []ecnp.RMInfo
	}
	// Count answers ReplicaCount.
	Count struct {
		N int
	}
	// CloseReq releases a reservation.
	CloseReq struct {
		Request ids.RequestID
	}
	// OfferReply answers OfferReplica.
	OfferReply struct {
		Accepted bool
	}
	// FinishReplica finalizes a transfer at the destination.
	FinishReplica struct {
		Replication ids.ReplicationID
		Committed   bool
	}
	// ReadFile opens a data stream.
	ReadFile struct {
		File ids.FileID
		// ChunkSize is the server's streaming granularity hint in bytes.
		ChunkSize int
		// Offset is the byte position the stream starts at: 0 reads the
		// whole file; a failover resume picks up exactly where the
		// previous replica's stream died.
		Offset int64
		// Request, when non-zero, names the QoS reservation this stream
		// serves; the server treats each chunk as implicit lease renewal.
		Request ids.RequestID
		// Length, when positive, bounds the stream to [Offset,
		// Offset+Length): the server replies with exactly that byte range
		// (clamped at EOF) and a FileEnd whose checksum covers only the
		// range. Zero or negative streams to EOF — the original
		// whole-file semantics — and frames byte-identically to the
		// pre-ranged layout, so old peers interoperate as long as no
		// range is requested.
		Length int64
	}
	// WriteFile opens an inbound data stream: the sender follows with
	// FileChunk frames and a FileEnd, and the receiver stores the bytes
	// on its virtual disk. Replication identifies the transfer this
	// stream belongs to (0 for plain uploads).
	WriteFile struct {
		File        ids.FileID
		SizeBytes   int64
		Replication ids.ReplicationID
	}
	// FileChunk is one piece of streamed file data.
	FileChunk struct {
		Offset int64
		Data   []byte
	}
	// FileEnd terminates a stream with an integrity checksum.
	FileEnd struct {
		Size     int64
		Checksum uint64
	}
	// Ack is the empty success reply.
	Ack struct{}
	// Error carries a remote failure.
	Error struct {
		Text string
	}
	// Heartbeat is an RM's periodic liveness beacon to the MM.
	Heartbeat struct {
		RM ids.RMID
	}
	// Keepalive explicitly renews a reservation lease at the serving RM.
	Keepalive struct {
		Request ids.RequestID
	}
	// ShardBeat is one MM shard's periodic liveness beacon to a peer
	// shard. Shard is the sender's ring index.
	ShardBeat struct {
		Shard int32
	}
	// ShardMirror replays one replica-map mutation from the shard that
	// served it (the key's primary) to a successor shard holding a mirror
	// of the mapping. Op selects the mutation; the remaining fields carry
	// its arguments (unused ones stay zero). The receiver applies the
	// mutation locally and never re-mirrors, so mirrors cannot loop.
	ShardMirror struct {
		// Op is the mutation name: "AddReplica", "RemoveReplica",
		// "BeginReplication" or "EndReplication".
		Op       string
		File     ids.FileID
		RM       ids.RMID
		MaxTotal int
		Commit   bool
	}
	// ShardEntry is one file → replica-set mapping inside a handoff batch.
	ShardEntry struct {
		File ids.FileID
		RMs  []ids.RMID
	}
	// ShardHandoff re-replicates a slice of the keyspace between MM
	// shards: a takeover pushes a dead shard's mappings to the next
	// successor so the replication factor recovers, and a heal pushes a
	// revived shard's keyspace back to it. Infos carries the registration
	// records the entries reference, so a freshly restarted (empty) shard
	// can accept the mappings. Application is idempotent — entries the
	// receiver already holds are skipped.
	ShardHandoff struct {
		// From is the sending shard's ring index; Direction is "takeover"
		// or "heal" (telemetry and diagnostics).
		From      int32
		Direction string
		Infos     []ecnp.RMInfo
		Entries   []ShardEntry
	}
)

// ChecksumBasis is the initial state of the running checksum every data
// stream carries (the empty input's checksum). A failover client threads
// one running state across segments served by different replicas; since
// an offset resume is byte-contiguous with its predecessor, the final
// FileEnd's whole-file checksum still verifies.
//
// The data-plane checksum is not negotiated: a peer built with the older
// FNV-1a definition disagrees on every non-empty stream, which fails
// loudly as a checksum mismatch and is never accepted.
const ChecksumBasis uint64 = 0

// castagnoliTable drives the checksum's high half. crc32.MakeTable hands
// back the hardware-backed table on amd64 (SSE4.2) and arm64 (CRC32X).
var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// ChecksumUpdate folds data into the running checksum and returns the new
// state. The checksum is CRC-32C in the high 32 bits and CRC-32 (IEEE)
// in the low 32: two CRCs over coprime degree-32 polynomials are, by the
// CRT, one degree-64 CRC, so random corruption escapes with probability
// ~2⁻⁶⁴ and every burst of ≤ 32 bits is caught. Both halves run on the
// CPU's CRC/carry-less-multiply instructions where hash/crc32 has them,
// so summing every streamed byte no longer bounds the data plane.
// Like any CRC the state streams: folding a buffer in any split equals
// folding it whole.
func ChecksumUpdate(sum uint64, data []byte) uint64 {
	return uint64(crc32.Update(uint32(sum>>32), castagnoliTable, data))<<32 |
		uint64(crc32.Update(uint32(sum), crc32.IEEETable, data))
}

// ChecksumCombine returns the checksum of A‖B from a, the checksum of A,
// and b, the checksum of the n-byte B, without touching the bytes:
// ChecksumCombine(ChecksumUpdate(ChecksumBasis, A), ChecksumUpdate(ChecksumBasis, B), len(B))
// equals ChecksumUpdate(ChecksumBasis, A‖B). Each CRC half shifts a by
// x^(8n) mod P and adds b, so a reader that verified its pieces'
// checksums separately folds them into the whole's in O(log n). n must
// not be negative.
func ChecksumCombine(a, b uint64, n int64) uint64 {
	if n < 0 {
		panic("wire: ChecksumCombine of a negative length")
	}
	return uint64(castagnoliShift.shift(uint32(a>>32), n)^uint32(b>>32))<<32 |
		uint64(ieeeShift.shift(uint32(a), n)^uint32(b))
}

// crcShifter multiplies CRC-32 values by powers of x modulo one
// polynomial. Polynomials are bit-reflected like hash/crc32's: bit 31
// holds the x⁰ coefficient.
type crcShifter struct {
	poly uint32 // the reflected polynomial, as crc32.Castagnoli/IEEE
	// pow[k] is x^(8·2^k) mod P: one entry per bit of a non-negative
	// int64 byte count. (zlib wraps a 32-entry table on the period of
	// x^(2^k), which holds for CRC-32 but not for CRC-32C.)
	pow [63]uint32
}

var (
	castagnoliShift = newCRCShifter(crc32.Castagnoli)
	ieeeShift       = newCRCShifter(crc32.IEEE)
)

func newCRCShifter(poly uint32) *crcShifter {
	s := &crcShifter{poly: poly}
	p := uint32(1) << 30 // x¹
	for i := 0; i < 3; i++ {
		p = s.mul(p, p) // x² → x⁴ → x⁸
	}
	for k := range s.pow {
		s.pow[k] = p
		p = s.mul(p, p)
	}
	return s
}

// mul returns a·b mod P.
func (s *crcShifter) mul(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ s.poly
		} else {
			b >>= 1
		}
	}
	return p
}

// shift returns crc·x^(8n) mod P: the CRC register after n zero bytes.
func (s *crcShifter) shift(crc uint32, n int64) uint32 {
	for k := 0; n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			crc = s.mul(s.pow[k], crc)
		}
	}
	return crc
}

// RemoteError is an error the peer *served* as a KindError reply: the RPC
// round trip itself completed, so the connection stays healthy and
// reusable. Callers distinguish it from transport failures with
//
//	var re wire.RemoteError
//	if errors.As(err, &re) { ... }
//
// (or transport.IsRemote), never by matching the error text.
type RemoteError struct {
	// Text is the peer's diagnostic message.
	Text string
}

// Error implements error. The "wire: remote error:" prefix is kept stable
// for log readability only; programmatic classification must use errors.As.
func (e RemoteError) Error() string { return "wire: remote error: " + e.Text }

// FrameTooLargeError reports a frame-size cap violation: an outgoing
// message that encoded past MaxFrame, or an incoming header announcing a
// body past the cap (a malformed or hostile peer). Match it with
//
//	var fe *wire.FrameTooLargeError
//	if errors.As(err, &fe) { ... }
//
// so transport and telemetry can classify cap violations apart from
// generic connection failures.
type FrameTooLargeError struct {
	// Kind is the message kind for outgoing violations; outgoing is
	// false (and Kind zero) for incoming ones, where the frame was
	// rejected before decoding.
	Kind Kind
	// Size is the offending frame's body size in bytes.
	Size int64
	// Cap is the limit that was exceeded (MaxFrame).
	Cap int64
	// Outgoing distinguishes encode-side from read-side violations.
	Outgoing bool
}

// Error implements error.
func (e *FrameTooLargeError) Error() string {
	if e.Outgoing {
		return fmt.Sprintf("wire: %v frame of %d bytes exceeds cap %d", e.Kind, e.Size, e.Cap)
	}
	return fmt.Sprintf("wire: incoming frame of %d bytes exceeds cap %d", e.Size, e.Cap)
}

// deadliner is the deadline surface of net.Conn (and net.Pipe).
type deadliner interface {
	SetDeadline(time.Time) error
}

// writeDeadliner is the write-side deadline surface of net.Conn.
type writeDeadliner interface {
	SetWriteDeadline(time.Time) error
}

// Conn frames messages over a reliable byte stream. Reads and writes are
// independently serialized, so one goroutine may stream reads while another
// writes.
type Conn struct {
	wmu sync.Mutex
	rmu sync.Mutex
	rw  io.ReadWriter
	// wt, guarded by wmu, arms a fresh write deadline per frame (servers
	// use it so a stalled reader cannot wedge a handler goroutine).
	wt time.Duration
	// rhdr, guarded by rmu, is the frame-header scratch for Read: a local
	// array would escape through the io.ReadFull interface call and cost
	// one heap allocation per frame.
	rhdr [headerSize]byte
	// tenant, when non-zero, is the ids.TenantID stamped on every
	// outgoing frame, which then goes out as codec tag 3. Per-connection
	// (not per-call) because a client acts for exactly one tenant —
	// stamping at dial time keeps every write path's signature and
	// allocation profile unchanged.
	tenant atomic.Int32
}

// NewConn wraps a byte stream (normally a *net.TCPConn).
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// SetTenant stamps the tenant identity on every frame written from now
// on: frames switch to the tag-3 tenant codec. ids.NoneTenant (the
// default) restores untenanted framing. Safe to call concurrently with
// traffic.
func (c *Conn) SetTenant(t ids.TenantID) { c.tenant.Store(int32(t)) }

// Tenant returns the identity stamped by SetTenant.
func (c *Conn) Tenant() ids.TenantID { return c.tenantID() }

// tenantID loads the stamped tenant (the write paths' per-frame check).
func (c *Conn) tenantID() ids.TenantID { return ids.TenantID(c.tenant.Load()) }

// SetDeadline forwards an absolute deadline to the underlying stream when
// it supports one (net.Conn does; an in-memory buffer does not). It
// reports whether a deadline was applied. A zero time clears the deadline.
func (c *Conn) SetDeadline(t time.Time) bool {
	if d, ok := c.rw.(deadliner); ok {
		return d.SetDeadline(t) == nil
	}
	return false
}

// SetWriteTimeout arms a rolling per-frame write deadline: every Write
// gets d from its start to reach the kernel, independent of how long the
// connection has been open. Zero (the default) disables it. It is a no-op
// on streams without deadline support.
func (c *Conn) SetWriteTimeout(d time.Duration) {
	c.wmu.Lock()
	c.wt = d
	c.wmu.Unlock()
}

// armWriteDeadlineLocked arms the rolling per-frame write deadline when
// one is configured. Caller holds wmu.
func (c *Conn) armWriteDeadlineLocked() {
	if c.wt > 0 {
		if wd, ok := c.rw.(writeDeadliner); ok {
			wd.SetWriteDeadline(time.Now().Add(c.wt))
		}
	}
}

// Write sends one message as a binary frame. The frame leaves as a
// single write — header and body are assembled in one pooled buffer
// (chunks: one writev via WriteChunk) — so a frame costs one syscall,
// not two. A (kind, payload) pair with no binary layout fails with a
// typed *CodecError and sends nothing.
func (c *Conn) Write(kind Kind, payload any) error {
	return c.WriteTraced(trace.SpanContext{}, kind, payload)
}

// WriteTraced is Write carrying the span context tc on the frame (codec
// tag 2, or tag 3 on a tenant-stamped connection), so the receiving
// server can join the sender's trace. A zero tc is exactly Write.
// Chunks route through WriteChunk.
func (c *Conn) WriteTraced(tc trace.SpanContext, kind Kind, payload any) error {
	if kind == KindFileChunk {
		switch p := payload.(type) {
		case FileChunk:
			return c.WriteChunk(tc, p.Offset, p.Data)
		case *FileChunk:
			return c.WriteChunk(tc, p.Offset, p.Data)
		}
	}
	bp := getBuf(96)
	frame, codec, err := c.encodeFrame(*bp, tc, kind, payload)
	*bp = frame[:0] // adopt the (possibly regrown) backing array for the pool
	if err == nil {
		err = c.writeFrame(frame, kind)
	}
	putBuf(bp)
	if err == nil {
		codecMet.Load().tx[codec].Inc()
	}
	return err
}

// encodeFrame appends one whole frame — header, slots and binary-v1
// body — for (kind, payload) to b. It fails with a *CodecError when the
// pair has no layout and with a *FrameTooLargeError past MaxFrame.
func (c *Conn) encodeFrame(b []byte, tc trace.SpanContext, kind Kind, payload any) ([]byte, Codec, error) {
	b, codec := c.appendHeader(b, tc)
	b, ok := appendBinary(b, kind, payload)
	if !ok {
		return b, codec, &CodecError{Codec: codec, Kind: kind, Reason: "payload type has no layout under this kind"}
	}
	n := len(b) - headerSize
	if n > MaxFrame {
		return b, codec, &FrameTooLargeError{Kind: kind, Size: int64(n), Cap: MaxFrame, Outgoing: true}
	}
	binary.BigEndian.PutUint32(b[:4], uint32(n))
	return b, codec, nil
}

// writeFrame pushes one fully assembled frame to the stream under the
// write lock and per-frame deadline.
func (c *Conn) writeFrame(frame []byte, kind Kind) error {
	c.wmu.Lock()
	c.armWriteDeadlineLocked()
	_, err := c.rw.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("wire: writing %v frame: %w", kind, err)
	}
	return nil
}

// WriteTorn writes a deliberately truncated frame: a header declaring the
// full body length followed by only half the body bytes. The peer blocks
// on the missing bytes until the connection drops, then surfaces an EOF
// mid-frame — the exact shape of a server crashing mid-write. It exists
// for the fault-injection substrate (faults.PartialWrite) and its tests;
// no production path calls it. The caller must drop the connection
// afterwards: the stream is unframeable from here on.
func (c *Conn) WriteTorn(kind Kind, payload any) error {
	// The same layout and cap checks as Write: a torn frame must still be
	// one the reader would have accepted, so the fault it injects is
	// "peer died mid-write", never "peer sent a malformed frame".
	frame, _, err := c.encodeFrame(nil, trace.SpanContext{}, kind, payload)
	if err != nil {
		return err
	}
	cut := headerSize + (len(frame)-headerSize)/2
	return c.writeFrame(frame[:cut], kind)
}

// Read receives one message. The frame body lands in a pooled buffer:
// FileChunk frames lend it to the returned Msg (Data points into it)
// until Msg.Release — see the borrowed-buffer contract there — and every
// other kind is copied out and returns it at once. Hostile input surfaces
// typed errors (*FrameTooLargeError for an oversized declared length,
// *CodecError for unknown tags or kinds and malformed bodies), never a
// panic.
func (c *Conn) Read() (Msg, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if _, err := io.ReadFull(c.rw, c.rhdr[:]); err != nil {
		return Msg{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(c.rhdr[:4])
	codec := Codec(c.rhdr[4])
	if n > MaxFrame {
		return Msg{}, &FrameTooLargeError{Size: int64(n), Cap: MaxFrame}
	}
	bp := getBuf(int(n))
	body := (*bp)[:n]
	if _, err := io.ReadFull(c.rw, body); err != nil {
		putBuf(bp)
		return Msg{}, fmt.Errorf("wire: reading body: %w", err)
	}
	slots, ok := slotSize(codec)
	if !ok || len(body) < slots {
		putBuf(bp)
		reason := "unknown codec tag"
		if ok {
			reason = fmt.Sprintf("body shorter than the %d-byte slots of %v", slots, codec)
		}
		return Msg{}, &CodecError{Codec: codec, Reason: reason}
	}
	var ten ids.TenantID
	var tc trace.SpanContext
	s := body[:slots]
	if codec == CodecBinaryTenant {
		ten = ids.TenantID(int32(binary.BigEndian.Uint32(s)))
		s = s[tenantSize:]
	}
	if len(s) == traceSize {
		tc = trace.SpanContext{
			Trace: ids.RequestID(int64(binary.BigEndian.Uint64(s[:8]))),
			Span:  binary.BigEndian.Uint64(s[8:]),
		}
	}
	msg, retained, err := decodeBinary(codec, body[slots:], bp)
	if !retained {
		putBuf(bp)
	}
	if err != nil {
		return Msg{}, err
	}
	msg.Trace, msg.Tenant = tc, ten
	codecMet.Load().rx[codec].Inc()
	return msg, nil
}

// Call performs a synchronous request/response round trip. A KindError
// reply is surfaced as a RemoteError.
func (c *Conn) Call(kind Kind, payload any) (Msg, error) {
	return c.CallTraced(trace.SpanContext{}, kind, payload)
}

// CallTraced is Call with the span context tc stamped on the request
// frame (see WriteTraced). A zero tc is exactly Call.
func (c *Conn) CallTraced(tc trace.SpanContext, kind Kind, payload any) (Msg, error) {
	if err := c.WriteTraced(tc, kind, payload); err != nil {
		return Msg{}, err
	}
	reply, err := c.Read()
	if err != nil {
		return Msg{}, err
	}
	if reply.Kind == KindError {
		if e, ok := reply.Payload.(Error); ok {
			return Msg{}, RemoteError{Text: e.Text}
		}
		return Msg{}, RemoteError{Text: "malformed error payload"}
	}
	return reply, nil
}

// CallContext is Call bounded by ctx: the context's deadline and
// cancellation are mapped onto the stream's I/O deadlines, so a stalled or
// unreachable peer cannot block the caller past the context. With a
// deadline-free, never-canceled context it degenerates to Call. A span
// context attached to ctx (trace.NewContext) is stamped on the request
// frame, so trace propagation flows through every transport.Client.Call
// without widening its signature. The connection is left with no deadline
// armed on return; a call aborted by ctx leaves the stream
// desynchronized, so the caller must discard it (the transport pool does
// exactly that).
func (c *Conn) CallContext(ctx context.Context, kind Kind, payload any) (Msg, error) {
	if err := ctx.Err(); err != nil {
		return Msg{}, err
	}
	if _, ok := c.rw.(deadliner); ok && ctx.Done() != nil {
		// Arm the deadline and also watch for early cancellation: an
		// expired deadline makes the pending read/write return promptly.
		if dl, hasDL := ctx.Deadline(); hasDL {
			c.SetDeadline(dl)
		}
		stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Now()) })
		defer func() {
			stop()
			c.SetDeadline(time.Time{})
		}()
	}
	msg, err := c.CallTraced(trace.FromContext(ctx), kind, payload)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			// Prefer the context's verdict over the raw i/o timeout error.
			return Msg{}, fmt.Errorf("wire: call %v: %w", kind, cerr)
		}
		// The socket deadline we armed from the context can fire a hair
		// before the context's own timer observes expiry; attribute such
		// an i/o timeout to the context deadline it came from.
		if errors.Is(err, os.ErrDeadlineExceeded) {
			if dl, hasDL := ctx.Deadline(); hasDL && !time.Now().Before(dl) {
				return Msg{}, fmt.Errorf("wire: call %v: %w", kind, context.DeadlineExceeded)
			}
		}
	}
	return msg, err
}

// WriteError replies with a remote error message.
func (c *Conn) WriteError(err error) error {
	return c.Write(KindError, Error{Text: err.Error()})
}

// IsWriteDeadline reports whether err is a reply-write deadline overrun —
// the failure a server sees when SetWriteTimeout fires because the peer
// stopped reading. Servers use it to count deadline hits separately from
// ordinary disconnects.
func IsWriteDeadline(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}
