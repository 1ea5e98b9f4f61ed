package main

import (
	"fmt"
	"time"

	"dfsqos/internal/trace"
	"dfsqos/internal/wire"
)

// metric is one named measurement.
type metric struct {
	name  string
	unit  string
	value float64
	// note says how the value was taken when the name alone does not
	// (a lower tail percentile, a ratio's base).
	note string
}

// report is everything a run measured.
type report struct {
	attempted, failed int64
	metrics           []metric
}

func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

// counters are the process-wide and client-side counters the per-layer
// metrics take deltas of, read through public APIs only.
type counters struct {
	proc                procSample
	txBinary, txGob     uint64 // wire frames written
	calls, dials        uint64 // generator transport calls and dials
	throttleWait        float64
	segments, failovers int64 // dfsc.Stats, summed over clients
}

func (d *deployment) counters() counters {
	var c counters
	c.proc = sampleProc()
	c.txBinary, c.txGob, _, _ = wire.CodecStats()
	c.calls = d.tmet.CallLatency.Count()
	c.dials = d.tmet.DialsOK.Value()
	c.throttleWait = d.throttleWait()
	for _, bc := range d.clients {
		st := bc.cli.Stats()
		c.segments += st.Segments
		c.failovers += st.Failovers
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		proc:         c.proc.minus(o.proc),
		txBinary:     c.txBinary - o.txBinary,
		txGob:        c.txGob - o.txGob,
		calls:        c.calls - o.calls,
		dials:        c.dials - o.dials,
		throttleWait: c.throttleWait - o.throttleWait,
		segments:     c.segments - o.segments,
		failovers:    c.failovers - o.failovers,
	}
}

func (c *counters) add(o counters) {
	c.proc = c.proc.plus(o.proc)
	c.txBinary += o.txBinary
	c.txGob += o.txGob
	c.calls += o.calls
	c.dials += o.dials
	c.throttleWait += o.throttleWait
	c.segments += o.segments
	c.failovers += o.failovers
}

// addLatency reports ds as <prefix>_p50_ms, <prefix>_p90_ms and
// <prefix>_p99_ms. When fewer than 1,000 samples leave too few beyond
// p99, that tail is the highest percentile with ten samples beyond it,
// named in the note.
func (r *report) addLatency(prefix string, ds []time.Duration) {
	xs := durationsMS(ds)
	n := len(xs)
	note := fmt.Sprintf("n=%d", n)
	r.add(prefix+"_p50_ms", "ms", median(xs), note)
	r.add(prefix+"_p90_ms", "ms", quantile(xs, 0.9), note)
	q := tailQuantile(n)
	tail := note
	if q != 0.99 {
		tail = fmt.Sprintf("n=%d, p%.0f: too few samples for p99", n, q*100)
	}
	r.add(prefix+"_p99_ms", "ms", quantile(xs, q), tail)
}

// liveEndToEnd derives the user-visible metrics of a live pass.
func liveEndToEnd(r *report, st runStats) {
	var ops, reads1, ttfb1, reads2, writes []time.Duration
	var bytes1, bytes2, bytesW int64
	var secs1, secs2, secsW float64
	for _, res := range st.results {
		r.attempted++
		if res.err != nil {
			r.failed++
			continue
		}
		ops = append(ops, res.dur)
		switch {
		case res.kind == opWrite:
			writes = append(writes, res.dur)
			bytesW += res.bytes
			secsW += res.dur.Seconds()
		case res.width <= 1:
			reads1 = append(reads1, res.dur)
			ttfb1 = append(ttfb1, res.ttfb)
			bytes1 += res.bytes
			secs1 += res.dur.Seconds()
		default:
			reads2 = append(reads2, res.dur)
			bytes2 += res.bytes
			secs2 += res.dur.Seconds()
		}
	}
	r.add("ops_per_s", "1/s", median(st.rates),
		fmt.Sprintf("median over %d rounds; %d ops in %.3fs", len(st.rates), len(ops), st.elapsed.Seconds()))
	r.add("ops_per_cpu_s", "1/cpu-s", median(st.cpu), fmt.Sprintf("median over %d rounds", len(st.cpu)))
	r.addLatency("op", ops)
	r.addLatency("read_ttfb", ttfb1)
	r.addLatency("read", reads1)
	r.add("read_mb_s", "MB/s", ratio(float64(bytes1)/1e6, secs1), "bytes over time inside width-1 reads")
	if len(reads2) > 0 {
		r.add("striped_read_p50_ms", "ms", median(durationsMS(reads2)), fmt.Sprintf("n=%d", len(reads2)))
		r.add("striped_read_mb_s", "MB/s", ratio(float64(bytes2)/1e6, secs2), "bytes over time inside width-2 reads")
	}
	r.addLatency("write", writes)
	r.add("write_mb_s", "MB/s", ratio(float64(bytesW)/1e6, secsW), "bytes over time from Store to acknowledged WriteFile")
	r.add("fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)),
		fmt.Sprintf("%d of %d ops", r.failed, r.attempted))
}

// Server-side span names of the program's own tracer.
const (
	serverLookup = "mm.Lookup"
	serverBid    = "rm.bid"
	serverOpen   = "rm.open"
	serverStream = "rm.stream"
)

// layerSpans gathers one layer's client-side spans across a pass.
type layerSpans struct {
	durs  []time.Duration
	ok    int
	bytes int64
	busy  time.Duration
}

// liveLayers derives the per-layer metrics of a live workload: counters
// from the untraced pass, client spans and server spans from the traced
// pass, and the tracing overhead from the two passes' op rates.
func liveLayers(r *report, plain, traced runStats, server []trace.Record) {
	ops := 0
	var self time.Duration
	layers := make(map[string]*layerSpans)
	for _, res := range traced.results {
		if res.err != nil || res.trace == nil {
			continue
		}
		ops++
		s, _ := opSelf(res.trace)
		self += s
		for _, sp := range res.trace.spans {
			l := layers[sp.layer]
			if l == nil {
				l = &layerSpans{}
				layers[sp.layer] = l
			}
			d := sp.end.Sub(sp.start)
			l.durs = append(l.durs, d)
			l.busy += d
			l.bytes += sp.bytes
			if sp.ok {
				l.ok++
			}
		}
	}
	get := func(name string) *layerSpans {
		if l := layers[name]; l != nil {
			return l
		}
		return &layerSpans{}
	}
	perOp := func(n int) float64 { return ratio(float64(n), float64(ops)) }
	pct := func(name string, q float64, scale time.Duration) float64 {
		l := get(name)
		xs := make([]float64, len(l.durs))
		for i, d := range l.durs {
			xs[i] = float64(d) / float64(scale)
		}
		return quantile(xs, q)
	}
	serverPct := func(name string, q float64, scale time.Duration) (float64, int) {
		var xs []float64
		for _, rec := range server {
			if rec.Name == name && !rec.Start.Before(traced.begin) {
				xs = append(xs, float64(rec.Dur)/float64(scale))
			}
		}
		return quantile(xs, q), len(xs)
	}
	base := fmt.Sprintf("over %d traced ops", ops)

	r.add("ops.count", "count", float64(ops), "traced ops, the base of every per-op ratio")
	reads, writes := 0, 0
	for _, res := range plain.results {
		if res.err == nil && res.kind == opRead {
			reads++
		} else if res.err == nil {
			writes++
		}
	}
	r.add("reads.count", "count", float64(reads), "untraced pass")
	r.add("writes.count", "count", float64(writes), "untraced pass")

	r.add("dfsc.self_us_per_op", "us", us(self)/float64(max(ops, 1)), "op time minus the union of its child spans; "+base)
	cfp, open := get(layerCFP), get(layerOpen)
	r.add("dfsc.cfp_per_op", "count/op", perOp(len(cfp.durs)), fmt.Sprintf("%d CFPs %s", len(cfp.durs), base))
	r.add("dfsc.open_accept_ratio", "ratio", ratio(float64(open.ok), float64(len(open.durs))),
		fmt.Sprintf("%d of %d opens admitted", open.ok, len(open.durs)))
	r.add("dfsc.segments_per_read", "count/op", ratio(float64(plain.delta.segments), float64(reads)),
		fmt.Sprintf("%d segments over %d reads", plain.delta.segments, reads))
	r.add("dfsc.failovers", "count", float64(plain.delta.failovers), "untraced pass")

	lookup := get(layerLookup)
	r.add("mm.lookup.calls", "count", float64(len(lookup.durs)), base)
	r.add("mm.lookup.calls_per_op", "count/op", perOp(len(lookup.durs)), base)
	r.add("mm.lookup.rtt_p50_us", "us", pct(layerLookup, 0.5, time.Microsecond), "")
	r.add("mm.lookup.rtt_p99_us", "us", pct(layerLookup, 0.99, time.Microsecond), "")
	v, n := serverPct(serverLookup, 0.5, time.Microsecond)
	r.add("mm.lookup.server_p50_us", "us", v, fmt.Sprintf("%d %s spans", n, serverLookup))
	r.add("mm.add_replica.rtt_p50_us", "us", pct(layerAddReplica, 0.5, time.Microsecond), fmt.Sprintf("n=%d", len(get(layerAddReplica).durs)))
	r.add("mm.rms.rtt_p50_us", "us", pct(layerRMs, 0.5, time.Microsecond), fmt.Sprintf("n=%d", len(get(layerRMs).durs)))

	r.add("rm.cfp.calls", "count", float64(len(cfp.durs)), base)
	r.add("rm.cfp.rtt_p50_us", "us", pct(layerCFP, 0.5, time.Microsecond), "")
	r.add("rm.cfp.rtt_p99_us", "us", pct(layerCFP, 0.99, time.Microsecond), "")
	v, n = serverPct(serverBid, 0.5, time.Microsecond)
	r.add("rm.cfp.server_p50_us", "us", v, fmt.Sprintf("%d %s spans", n, serverBid))
	r.add("rm.open.calls", "count", float64(len(open.durs)), base)
	r.add("rm.open.rtt_p50_us", "us", pct(layerOpen, 0.5, time.Microsecond), "")
	v, n = serverPct(serverOpen, 0.5, time.Microsecond)
	r.add("rm.open.server_p50_us", "us", v, fmt.Sprintf("%d %s spans", n, serverOpen))
	r.add("rm.close.rtt_p50_us", "us", pct(layerClose, 0.5, time.Microsecond), fmt.Sprintf("n=%d", len(get(layerClose).durs)))
	r.add("rm.store.rtt_p50_us", "us", pct(layerStore, 0.5, time.Microsecond), fmt.Sprintf("n=%d", len(get(layerStore).durs)))

	stream, ingest := get(layerStream), get(layerIngest)
	r.add("stream.calls", "count", float64(len(stream.durs)), base)
	r.add("stream.call_p50_ms", "ms", pct(layerStream, 0.5, time.Millisecond), "StreamAt and StreamRange calls")
	r.add("stream.mb_s", "MB/s", ratio(float64(stream.bytes)/1e6, stream.busy.Seconds()), "bytes over time inside stream calls")
	v, n = serverPct(serverStream, 0.5, time.Millisecond)
	r.add("stream.server_p50_ms", "ms", v, fmt.Sprintf("%d %s spans", n, serverStream))
	r.add("ingest.p50_ms", "ms", pct(layerIngest, 0.5, time.Millisecond), fmt.Sprintf("n=%d WriteFile calls", len(ingest.durs)))
	r.add("ingest.mb_s", "MB/s", ratio(float64(ingest.bytes)/1e6, ingest.busy.Seconds()), "bytes over time inside WriteFile")

	pops := float64(reads + writes)
	dc := plain.delta
	frames := float64(dc.txBinary + dc.txGob)
	r.add("wire.frames", "count", frames, "frames written in the untraced pass")
	r.add("wire.gob_frames_per_op", "count/op", ratio(float64(dc.txGob), pops), "")
	r.add("wire.binary_frames_per_op", "count/op", ratio(float64(dc.txBinary), pops), "")
	r.add("wire.gob_share", "ratio", ratio(float64(dc.txGob), frames), "")
	r.add("transport.calls_per_op", "count/op", ratio(float64(dc.calls), pops), fmt.Sprintf("%d generator RPCs", dc.calls))
	r.add("transport.dials", "count", float64(dc.dials), "generator dials inside the timed window")
	r.add("blkio.throttle_wait_s", "s", dc.throttleWait, "summed over every disk")
	runtimeLayers(r, dc.proc, pops)
	r.add("trace.overhead_ratio", "ratio",
		ratio(float64(reads+writes)/plain.elapsed.Seconds(), float64(ops)/traced.elapsed.Seconds()),
		"untraced ops_per_s over traced ops_per_s")
}

// runtimeLayers reports the Go runtime and kernel cost per op.
func runtimeLayers(r *report, p procSample, ops float64) {
	r.add("go.allocs_per_op", "count/op", ratio(float64(p.mallocs), ops), "")
	r.add("go.bytes_per_op", "B/op", ratio(float64(p.bytes), ops), "")
	r.add("go.gc_per_kop", "count/kop", ratio(float64(p.gcs)*1000, ops), "")
	r.add("proc.cpu_us_per_op", "us", ratio(us(p.cpu), ops), "user plus system CPU")
}

// opSelf splits an op's duration into the part no child span covers (the
// client's own time) and the union of its child spans.
func opSelf(op *opTrace) (self, children time.Duration) {
	children = covered(op.spans, op.start, op.end)
	return op.end.Sub(op.start) - children, children
}
