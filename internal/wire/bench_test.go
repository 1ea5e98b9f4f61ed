package wire

import (
	"bytes"
	"io"
	"net"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// discardRW is a ReadWriter that swallows writes (encode benchmarks).
type discardRW struct{}

func (discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (discardRW) Read(p []byte) (int, error)  { return 0, io.EOF }

// loopRW replays one pre-encoded frame forever (decode benchmarks).
type loopRW struct {
	frame []byte
	off   int
}

func (l *loopRW) Read(p []byte) (int, error) {
	if l.off == len(l.frame) {
		l.off = 0
	}
	n := copy(p, l.frame[l.off:])
	l.off += n
	return n, nil
}

func (l *loopRW) Write(p []byte) (int, error) { return len(p), nil }

// benchChunk is the data-plane payload size the RM stream server uses.
const benchChunk = 128 * 1024

func chunkData() []byte {
	data := make([]byte, benchChunk)
	for i := range data {
		data[i] = byte(i * 131)
	}
	return data
}

// benchEncodeChunk measures putting one FileChunk frame on the wire
// under span context tc from a connection stamped with tenant.
func benchEncodeChunk(b *testing.B, tc trace.SpanContext, tenant ids.TenantID) {
	data := chunkData()
	c := NewConn(discardRW{})
	c.SetTenant(tenant)
	b.SetBytes(benchChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.WriteChunk(tc, int64(i)*benchChunk, data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDecodeChunk measures turning the frame benchEncodeChunk writes
// back into a FileChunk: the decoder borrows the pooled frame buffer, so
// with Release a read allocates nothing.
func benchDecodeChunk(b *testing.B, tc trace.SpanContext, tenant ids.TenantID) {
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetTenant(tenant)
	if err := w.WriteChunk(tc, 0, chunkData()); err != nil {
		b.Fatal(err)
	}
	r := NewConn(&loopRW{frame: buf.Bytes()})
	b.SetBytes(benchChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := r.Read()
		if err != nil {
			b.Fatal(err)
		}
		msg.Release()
	}
}

// benchTC is the span context the traced and tenant benchmarks carry.
var benchTC = trace.SpanContext{Trace: 42, Span: 7}

// The chunk codec benchmarks, one per codec tag: plain (tag 1), traced
// (tag 2) and tenant-stamped (tag 3). scripts/bench.sh gates each /fast
// sub-benchmark at 0 allocs/op: neither tracing nor tenancy may put
// allocations back on the data plane.

func BenchmarkEncodeChunk(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchEncodeChunk(b, trace.SpanContext{}, ids.NoneTenant) })
}

func BenchmarkDecodeChunk(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchDecodeChunk(b, trace.SpanContext{}, ids.NoneTenant) })
}

func BenchmarkEncodeChunkTraced(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchEncodeChunk(b, benchTC, ids.NoneTenant) })
}

func BenchmarkDecodeChunkTraced(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchDecodeChunk(b, benchTC, ids.NoneTenant) })
}

func BenchmarkEncodeChunkTenant(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchEncodeChunk(b, benchTC, 3) })
}

func BenchmarkDecodeChunkTenant(b *testing.B) {
	b.Run("fast", func(b *testing.B) { benchDecodeChunk(b, benchTC, 3) })
}

// BenchmarkRoundTrip measures encode + decode through an in-memory stream,
// the full per-frame codec cost without network effects.
func BenchmarkRoundTrip(b *testing.B) {
	data := chunkData()
	b.Run("fast", func(b *testing.B) {
		var buf bytes.Buffer
		c := NewConn(&buf)
		b.SetBytes(benchChunk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.WriteChunk(trace.SpanContext{}, int64(i)*benchChunk, data); err != nil {
				b.Fatal(err)
			}
			msg, err := c.Read()
			if err != nil {
				b.Fatal(err)
			}
			msg.Release()
		}
	})
}

// BenchmarkStreamThroughput measures a producer/consumer chunk stream over
// an in-process pipe: writer goroutine framing chunks, reader consuming
// and checksumming them — the shape of the RM data plane minus the kernel.
func BenchmarkStreamThroughput(b *testing.B) {
	data := chunkData()
	b.Run("fast", func(b *testing.B) {
		cw, cr := net.Pipe()
		w := NewConn(cw)
		r := NewConn(cr)
		done := make(chan error, 1)
		go func() {
			for i := 0; i < b.N; i++ {
				if err := w.WriteChunk(trace.SpanContext{}, int64(i)*benchChunk, data); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		b.SetBytes(benchChunk)
		b.ReportAllocs()
		b.ResetTimer()
		sum := ChecksumBasis
		for i := 0; i < b.N; i++ {
			msg, err := r.Read()
			if err != nil {
				b.Fatal(err)
			}
			if ch, ok := msg.Chunk(); ok {
				sum = ChecksumUpdate(sum, ch.Data[:64]) // sample, not full hash
			}
			msg.Release()
		}
		b.StopTimer()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		_ = sum
		cw.Close()
		cr.Close()
	})
}

// checksumFNV is the FNV-1a data-plane sum peers built before the CRC
// definition computed. It exists only as the baseline BenchmarkChecksum
// measures against.
func checksumFNV(sum uint64, data []byte) uint64 {
	for _, b := range data {
		sum ^= uint64(b)
		sum *= 1099511628211
	}
	return sum
}

// benchSink defeats dead-code elimination: without a package-level store
// the compiler inlines checksumFNV and deletes the whole hash loop,
// reporting a fantasy number.
var benchSink uint64

// BenchmarkChecksum pins the data-plane checksum's throughput against the
// serial FNV-1a sum it replaced. scripts/bench.sh gates the ratio at
// 4x, so a regression to a serial hash fails the run.
func BenchmarkChecksum(b *testing.B) {
	data := chunkData()
	b.Run("update", func(b *testing.B) {
		b.SetBytes(benchChunk)
		sum := ChecksumBasis
		for i := 0; i < b.N; i++ {
			sum = ChecksumUpdate(sum, data)
		}
		benchSink = sum
	})
	b.Run("fnv-legacy", func(b *testing.B) {
		b.SetBytes(benchChunk)
		sum := uint64(14695981039346656037)
		for i := 0; i < b.N; i++ {
			sum = checksumFNV(sum, data)
		}
		benchSink = sum
	})
}

// BenchmarkControlRoundTrip measures one negotiation exchange through an
// in-memory stream: the requester writes the request, the server reads
// it and writes the reply, the requester reads the reply — four codec
// passes, no network. scripts/bench.sh gates each /fast variant at its
// measured allocs/op (payload boxing and decoded slices only).
func BenchmarkControlRoundTrip(b *testing.B) {
	exchanges := []struct {
		name      string
		reqKind   Kind
		req       any
		replyKind Kind
		reply     any
	}{
		{"CFP_Bid", KindCFP, ecnp.CFP{Request: 1 << 40, File: 77, Bitrate: units.Mbps(2), DurationSec: 60, Tenant: 3},
			KindBid, selection.Bid{RM: 4, Rem: units.Mbps(12), Trend: 0.5, OccBias: 0.3, Req: units.Mbps(2), HasReplica: true, Assured: units.Mbps(12), Ceil: units.Mbps(20)}},
		{"Open_OpenResult", KindOpen, ecnp.OpenRequest{Request: 1 << 40, File: 77, Bitrate: units.Mbps(2), DurationSec: 60, Firm: true, Tenant: 3},
			KindOpenResult, ecnp.OpenResult{OK: true}},
		{"Lookup_RMList", KindLookup, FileRef{File: 4077},
			KindRMList, RMList{RMs: []ids.RMID{3, 7, 11}}},
	}
	for _, ex := range exchanges {
		b.Run(ex.name+"/fast", func(b *testing.B) {
			var buf bytes.Buffer
			c := NewConn(&buf)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Write(ex.reqKind, ex.req); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Read(); err != nil {
					b.Fatal(err)
				}
				if err := c.Write(ex.replyKind, ex.reply); err != nil {
					b.Fatal(err)
				}
				if _, err := c.Read(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
