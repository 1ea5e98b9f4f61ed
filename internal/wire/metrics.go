package wire

import (
	"sync/atomic"

	"dfsqos/internal/telemetry"
)

// codecCounters is the frame-count split by direction and codec tag,
// indexed by Codec (index 0, no tag, is unused). The children are
// resolved once so the per-frame cost is one atomic pointer load plus
// one atomic increment.
type codecCounters struct {
	tx, rx [len(codecNames)]*telemetry.Counter
}

// codecMet is the process-wide sink. It starts as an unregistered (live
// but unscraped) set so instrumentation needs no nil checks;
// RegisterCodecMetrics swaps in registry-backed counters.
var codecMet atomic.Pointer[codecCounters]

func init() { codecMet.Store(newCodecCounters(nil)) }

// newCodecCounters builds the frame counters on reg (nil reg yields
// live, unregistered counters).
func newCodecCounters(reg *telemetry.Registry) *codecCounters {
	v := reg.NewCounterVec("dfsqos_wire_frames_total",
		"Frames moved on wire connections, by direction (tx/rx) and codec (binary/binary-traced/binary-tenant).",
		"dir", "codec")
	m := &codecCounters{}
	for c := CodecBinary; c <= CodecBinaryTenant; c++ {
		m.tx[c] = v.With("tx", c.String())
		m.rx[c] = v.With("rx", c.String())
	}
	return m
}

// RegisterCodecMetrics exposes the per-tag frame split on reg as
// dfsqos_wire_frames_total{dir,codec}, making the codec mix observable at
// /metrics. Counts accumulated before registration are not carried over,
// so daemons call this right after building their registry. The sink is
// process-wide (frames are counted wherever the Conn lives, client or
// server side).
func RegisterCodecMetrics(reg *telemetry.Registry) {
	codecMet.Store(newCodecCounters(reg))
}

// CodecStats snapshots the process-wide plain-binary (codec tag 1) frame
// counters. The gob results always read 0, since no codec encodes gob;
// they keep the four-value form that benchmark reports read.
func CodecStats() (txBinary, txGob, rxBinary, rxGob uint64) {
	m := codecMet.Load()
	return m.tx[CodecBinary].Value(), 0, m.rx[CodecBinary].Value(), 0
}

// CodecTracedStats snapshots the traced-binary (codec tag 2) frame
// counters.
func CodecTracedStats() (txTraced, rxTraced uint64) {
	m := codecMet.Load()
	return m.tx[CodecBinaryTraced].Value(), m.rx[CodecBinaryTraced].Value()
}

// CodecTenantStats snapshots the tenant-binary (codec tag 3) frame
// counters.
func CodecTenantStats() (txTenant, rxTenant uint64) {
	m := codecMet.Load()
	return m.tx[CodecBinaryTenant].Value(), m.rx[CodecBinaryTenant].Value()
}
