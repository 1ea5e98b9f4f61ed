package main

import (
	"context"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/selection"
)

// Layer names of the spans the wrappers record. Each names the module the
// wrapped call enters and the operation.
const (
	layerLookup     = "mm.lookup"
	layerRMs        = "mm.rms"
	layerAddReplica = "mm.add_replica"
	layerMMOther    = "mm.other"
	layerCFP        = "rm.cfp"
	layerOpen       = "rm.open"
	layerClose      = "rm.close"
	layerStore      = "rm.store"
	layerRMOther    = "rm.other"
	layerStream     = "stream"
	layerIngest     = "ingest"
)

// span is one timed call a client made into a layer on behalf of an op.
type span struct {
	layer      string
	start, end time.Time
	ok         bool
	bytes      int64
}

// opTrace collects the spans of one generator op. Spans from calls that
// finish after the op ended (a reservation released later by the
// client's scheduler) are dropped: they did not block the op.
type opTrace struct {
	start, end time.Time

	mu    sync.Mutex
	done  bool
	spans []span
}

func (o *opTrace) add(s span) {
	o.mu.Lock()
	if !o.done {
		o.spans = append(o.spans, s)
	}
	o.mu.Unlock()
}

// layerTracer is one client's wrapper set. The generator marks the op it
// is running with begin and end; every wrapped call records its span into
// that op. A nil *layerTracer records nothing, which is the untraced run.
type layerTracer struct {
	cur atomic.Pointer[opTrace]
	// cfpDelay is slept inside every CFP span. Only the attribution test
	// sets it, to stand in for a slow bidder.
	cfpDelay time.Duration
}

// begin opens the span set of a new op and makes it current.
func (t *layerTracer) begin() *opTrace {
	if t == nil {
		return nil
	}
	op := &opTrace{start: time.Now()}
	t.cur.Store(op)
	return op
}

// finish closes op: later spans are dropped.
func (t *layerTracer) finish(op *opTrace) {
	if op == nil {
		return
	}
	op.mu.Lock()
	op.end = time.Now()
	op.done = true
	op.mu.Unlock()
	t.cur.CompareAndSwap(op, nil)
}

// record adds a span that started at start and ends now to op.
func (t *layerTracer) record(op *opTrace, layer string, start time.Time, ok bool, bytes int64) {
	if t == nil || op == nil {
		return
	}
	op.add(span{layer: layer, start: start, end: time.Now(), ok: ok, bytes: bytes})
}

// current is the op running on this client, nil when none is.
func (t *layerTracer) current() *opTrace {
	if t == nil {
		return nil
	}
	return t.cur.Load()
}

// liveMapper is the mapper surface dfsc type-asserts for: a live mapper
// offers the context and error-reporting lookups besides ecnp.Mapper. A
// wrapper that hid one of them would send dfsc down another lookup path.
type liveMapper interface {
	ecnp.Mapper
	LookupContext(ctx context.Context, file ids.FileID) []ids.RMID
	LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error)
}

// liveProvider is the provider surface dfsc type-asserts for: the
// deadline-bounded CFP (ecnp.CtxBidder) and the traced Open.
type liveProvider interface {
	ecnp.Provider
	ecnp.CtxBidder
	OpenContext(ctx context.Context, req ecnp.OpenRequest) ecnp.OpenResult
}

// The wrappers offer exactly the optional interfaces of what they wrap.
var (
	_ liveMapper         = (*live.MMClient)(nil)
	_ liveMapper         = (*live.ShardMapper)(nil)
	_ liveMapper         = (*tracedMapper)(nil)
	_ liveProvider       = (*live.RMClient)(nil)
	_ liveProvider       = (*tracedProvider)(nil)
	_ ecnp.Directory     = (*live.Directory)(nil)
	_ ecnp.Directory     = (*tracedDirectory)(nil)
	_ dfsc.RangeStreamer = (*live.Directory)(nil)
	_ dfsc.RangeStreamer = (*tracedDirectory)(nil)
)

// tracedMapper times every call a client makes into the metadata plane.
type tracedMapper struct {
	inner liveMapper
	t     *layerTracer
}

func (m *tracedMapper) rec(layer string, start time.Time, ok bool) {
	m.t.record(m.t.current(), layer, start, ok, 0)
}

func (m *tracedMapper) RegisterRM(info ecnp.RMInfo, files []ids.FileID) error {
	start := time.Now()
	err := m.inner.RegisterRM(info, files)
	m.rec(layerMMOther, start, err == nil)
	return err
}

func (m *tracedMapper) Lookup(file ids.FileID) []ids.RMID {
	start := time.Now()
	hs := m.inner.Lookup(file)
	m.rec(layerLookup, start, len(hs) > 0)
	return hs
}

func (m *tracedMapper) LookupContext(ctx context.Context, file ids.FileID) []ids.RMID {
	start := time.Now()
	hs := m.inner.LookupContext(ctx, file)
	m.rec(layerLookup, start, len(hs) > 0)
	return hs
}

func (m *tracedMapper) LookupErrContext(ctx context.Context, file ids.FileID) ([]ids.RMID, error) {
	start := time.Now()
	hs, err := m.inner.LookupErrContext(ctx, file)
	m.rec(layerLookup, start, err == nil)
	return hs, err
}

func (m *tracedMapper) RMsWithout(file ids.FileID) []ids.RMID {
	start := time.Now()
	out := m.inner.RMsWithout(file)
	m.rec(layerMMOther, start, true)
	return out
}

func (m *tracedMapper) AddReplica(file ids.FileID, rm ids.RMID) error {
	start := time.Now()
	err := m.inner.AddReplica(file, rm)
	m.rec(layerAddReplica, start, err == nil)
	return err
}

func (m *tracedMapper) RemoveReplica(file ids.FileID, rm ids.RMID) error {
	start := time.Now()
	err := m.inner.RemoveReplica(file, rm)
	m.rec(layerMMOther, start, err == nil)
	return err
}

func (m *tracedMapper) BeginReplication(file ids.FileID, rm ids.RMID, maxTotal int) error {
	start := time.Now()
	err := m.inner.BeginReplication(file, rm, maxTotal)
	m.rec(layerMMOther, start, err == nil)
	return err
}

func (m *tracedMapper) EndReplication(file ids.FileID, rm ids.RMID, commit bool) error {
	start := time.Now()
	err := m.inner.EndReplication(file, rm, commit)
	m.rec(layerMMOther, start, err == nil)
	return err
}

func (m *tracedMapper) ReplicaCount(file ids.FileID) int {
	start := time.Now()
	n := m.inner.ReplicaCount(file)
	m.rec(layerMMOther, start, true)
	return n
}

func (m *tracedMapper) RMs() []ecnp.RMInfo {
	start := time.Now()
	out := m.inner.RMs()
	m.rec(layerRMs, start, len(out) > 0)
	return out
}

// tracedDirectory wraps the live directory a client resolves providers
// and streams through. Providers it hands out are bound to the op that
// resolved them, so a release that lands after the op ended is dropped.
type tracedDirectory struct {
	inner *live.Directory
	t     *layerTracer
}

// Provider implements ecnp.Directory.
func (d *tracedDirectory) Provider(id ids.RMID) (ecnp.Provider, bool) {
	p, ok := d.inner.Provider(id)
	if !ok {
		return p, ok
	}
	lp, full := p.(liveProvider)
	if !full {
		return p, ok
	}
	return &tracedProvider{inner: lp, t: d.t, op: d.t.current()}, true
}

// StreamAt implements dfsc.Streamer.
func (d *tracedDirectory) StreamAt(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset int64, w io.Writer, sum *uint64) (int64, error) {
	op := d.t.current()
	start := time.Now()
	n, err := d.inner.StreamAt(ctx, rm, file, req, offset, w, sum)
	d.t.record(op, layerStream, start, err == nil, n)
	return n, err
}

// StreamRange implements dfsc.RangeStreamer.
func (d *tracedDirectory) StreamRange(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error) {
	op := d.t.current()
	start := time.Now()
	n, err := d.inner.StreamRange(ctx, rm, file, req, offset, length, w, sum)
	d.t.record(op, layerStream, start, err == nil, n)
	return n, err
}

// tracedProvider times every call a client makes into one RM.
type tracedProvider struct {
	inner liveProvider
	t     *layerTracer
	op    *opTrace
}

func (p *tracedProvider) rec(layer string, start time.Time, ok bool) {
	p.t.record(p.op, layer, start, ok, 0)
}

func (p *tracedProvider) Info() ecnp.RMInfo { return p.inner.Info() }

func (p *tracedProvider) HandleCFP(cfp ecnp.CFP) selection.Bid {
	start := time.Now()
	p.slowBid()
	bid := p.inner.HandleCFP(cfp)
	p.rec(layerCFP, start, true)
	return bid
}

func (p *tracedProvider) HandleCFPContext(ctx context.Context, cfp ecnp.CFP) selection.Bid {
	start := time.Now()
	p.slowBid()
	bid := p.inner.HandleCFPContext(ctx, cfp)
	p.rec(layerCFP, start, true)
	return bid
}

func (p *tracedProvider) slowBid() {
	if p.t.cfpDelay > 0 {
		time.Sleep(p.t.cfpDelay)
	}
}

func (p *tracedProvider) Open(req ecnp.OpenRequest) ecnp.OpenResult {
	start := time.Now()
	res := p.inner.Open(req)
	p.rec(layerOpen, start, res.OK)
	return res
}

func (p *tracedProvider) OpenContext(ctx context.Context, req ecnp.OpenRequest) ecnp.OpenResult {
	start := time.Now()
	res := p.inner.OpenContext(ctx, req)
	p.rec(layerOpen, start, res.OK)
	return res
}

func (p *tracedProvider) Close(request ids.RequestID) {
	start := time.Now()
	p.inner.Close(request)
	p.rec(layerClose, start, true)
}

func (p *tracedProvider) OfferReplica(offer ecnp.ReplicaOffer) bool {
	start := time.Now()
	ok := p.inner.OfferReplica(offer)
	p.rec(layerRMOther, start, ok)
	return ok
}

func (p *tracedProvider) FinishReplica(rep ids.ReplicationID, committed bool) {
	start := time.Now()
	p.inner.FinishReplica(rep, committed)
	p.rec(layerRMOther, start, true)
}

func (p *tracedProvider) StoreFile(req ecnp.StoreRequest) error {
	start := time.Now()
	err := p.inner.StoreFile(req)
	p.rec(layerStore, start, err == nil)
	return err
}

// covered returns how much of [from, to] the spans cover, counting
// overlapping spans (a concurrent CFP fan-out) once.
func covered(spans []span, from, to time.Time) time.Duration {
	type iv struct{ s, e time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, sp := range spans {
		s, e := sp.start, sp.end
		if s.Before(from) {
			s = from
		}
		if e.After(to) {
			e = to
		}
		if e.After(s) {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.s.After(cur.e):
			if v.e.After(cur.e) {
				cur.e = v.e
			}
		default:
			total += cur.e.Sub(cur.s)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.e.Sub(cur.s)
	}
	return total
}
