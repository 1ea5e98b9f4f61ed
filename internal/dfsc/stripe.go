// K-wide striped reads: one segment scheduler generalizing the failover
// reader. The file is split into addressable byte-range segments, the
// negotiation admits the top-K bidders simultaneously (one reservation
// per lane, reusing the existing CFP fan-out), and lanes pull contiguous
// ranges concurrently — each verified by a per-range checksum from the
// serving RM — while the committer writes the completed buffers to the
// writer in offset order, maintaining one whole-file checksum. The
// committer never re-reads a segment's bytes for it: each lane keeps the
// range sum it verified, and the committer folds that in with
// wire.ChecksumCombine (O(log n) per segment), so a striped read hashes
// every byte once, in the lane. Segment buffers come from a pool and go
// back once committed, so repeated reads reuse them instead of
// allocating one per range.
//
// Failover is the degenerate behavior the old reader already had: a lane
// dying requeues its unfinished range for the surviving lanes and
// re-negotiates a replacement under the shared MaxFailovers budget.
// Slow-replica hedging falls out of the same machinery: a lane with no
// unassigned work re-issues the oldest lagging in-flight range to its
// own replica, first-writer-wins, so one slow RM bounds tail latency
// instead of the whole read.
package dfsc

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
	"dfsqos/internal/wire"
)

// RangeStreamer is the data plane a striped read drives: StreamAt for
// the sequential fallback plus bounded byte-range streams. The live
// Directory implements it (RMClient.ReadRange); tests substitute fakes.
// StreamRange must deliver exactly [offset, offset+length) into w
// (clamped at EOF by the server), verifying the range checksum when sum
// is seeded with wire.ChecksumBasis and leaving the checksum of the
// delivered bytes in *sum (the committer combines it into the whole-file
// checksum), and report the bytes delivered even on error.
type RangeStreamer interface {
	Streamer
	StreamRange(ctx context.Context, rm ids.RMID, file ids.FileID, req ids.RequestID, offset, length int64, w io.Writer, sum *uint64) (int64, error)
}

// StripeConfig tunes ReadStriped.
type StripeConfig struct {
	// Width is the number of replica lanes to admit (the K in a K-wide
	// stripe). Values ≤ 1 — or a Streamer without ranged reads — degrade
	// to the sequential ReadWithFailover path, which is behaviorally
	// identical to the pre-stripe reader. Fewer eligible replicas than
	// Width degrades the stripe to the width that exists.
	Width int
	// SegmentBytes is the stripe granularity (default 1 MiB): lanes pull
	// ranges of this size, so smaller segments rebalance faster around a
	// slow replica at the cost of more range requests.
	SegmentBytes int64
	// HedgeAfter, when positive, arms slow-replica hedging: an idle lane
	// re-issues an in-flight range that has been running longer than this
	// against its own replica, first-writer-wins. Zero disables hedging.
	HedgeAfter time.Duration
	// MaxFailovers bounds lane re-admissions across the whole read, the
	// same budget ReadWithFailover spends on sequential failovers (0: a
	// dead lane is not replaced; negative is treated as 0). Surviving
	// lanes keep the read alive either way — the read fails only when no
	// lane remains and segments are still missing.
	MaxFailovers int
	// Backoff is the base delay before a lane re-negotiation, jittered
	// like ReadWithFailover's. Zero defaults to 50ms.
	Backoff time.Duration
}

// stripeSeg tracks one in-flight segment.
type stripeSeg struct {
	rm     ids.RMID  // lane the segment is assigned to
	start  time.Time // assignment time, the hedge-eligibility clock
	hedged bool      // a hedge copy is (or was) racing the original
}

// segPool recycles segment buffers across ranges and reads. A lane takes
// one per range; the committer returns it after w.Write (an io.Writer
// must not retain p), and the lane itself returns it when its copy lost
// a hedge race or its replica failed mid-range.
var segPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// stripeDone is a completed segment buffer awaiting commit.
type stripeDone struct {
	buf    *bytes.Buffer
	sum    uint64 // the range checksum the lane verified over buf
	rm     ids.RMID
	hedged bool // the committed copy came from the hedge
}

// stripeRun is the shared scheduler state: one mutex/cond pair guards
// the segment board (unassigned cursor, requeue list, in-flight and
// completed maps) plus the result accumulators lanes update.
type stripeRun struct {
	mu   sync.Mutex
	cond *sync.Cond

	size     int64
	segBytes int64
	numSegs  int
	window   int // commit-window width in segments, bounds buffering

	next     int   // lowest never-assigned segment index
	requeue  []int // segments returned by dead lanes, kept sorted
	inflight map[int]*stripeSeg
	done     map[int]*stripeDone
	commit   int // next segment index the committer needs

	lanes     int // live lane goroutines
	failovers int // shared MaxFailovers budget spent
	exclude   map[ids.RMID]bool
	err       error // terminal: no lane can finish the read

	res ReadResult // RMs/Hedges accumulate here under mu
}

// segRange returns the byte range of segment idx.
func (st *stripeRun) segRange(idx int) (off, length int64) {
	off = int64(idx) * st.segBytes
	length = st.segBytes
	if off+length > st.size {
		length = st.size - off
	}
	return off, length
}

// ReadStriped reads file through s as a K-wide stripe (see StripeConfig),
// writing the bytes to w in offset order and returning the per-segment
// attribution, failover/hedge counts, and the whole-file checksum. With
// Width ≤ 1, or when s cannot serve ranged reads, it is exactly
// ReadWithFailover — the sequential reader is the 1-wide stripe.
func (c *Client) ReadStriped(s Streamer, file ids.FileID, w io.Writer, cfg StripeConfig) (ReadResult, error) {
	rs, ranged := s.(RangeStreamer)
	if cfg.Width <= 1 || !ranged {
		return c.ReadWithFailover(s, file, w, FailoverConfig{MaxFailovers: cfg.MaxFailovers, Backoff: cfg.Backoff})
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	if cfg.MaxFailovers < 0 {
		cfg.MaxFailovers = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	c.met.StripeReads.Inc()

	size := int64(c.cat.File(file).Size)
	if size == 0 {
		// Nothing to stream, nothing to reserve: an empty file is a
		// successful read of zero segments with the basis checksum.
		return ReadResult{Checksum: wire.ChecksumBasis}, nil
	}

	st := &stripeRun{
		size:     size,
		segBytes: cfg.SegmentBytes,
		numSegs:  int((size + cfg.SegmentBytes - 1) / cfg.SegmentBytes),
		inflight: make(map[int]*stripeSeg),
		done:     make(map[int]*stripeDone),
		exclude:  make(map[ids.RMID]bool),
	}
	st.cond = sync.NewCond(&st.mu)
	st.window = 2*cfg.Width + 2

	// One root span covers the whole stripe; every lane's "dfsc.segment"
	// children hang off it, so /traces shows all lanes of one read as one
	// tree — the same shape a failover read already has, wider.
	root := c.tracer.StartRoot(c.nextRequestID(), "dfsc.stripe").SetFile(file)
	defer root.End()
	ctx := trace.NewContext(context.Background(), root.Context())

	lanes, fail := c.accessLanesCtx(ctx, file, st.exclude, cfg.Width)
	if len(lanes) == 0 {
		root.SetOutcome("error")
		return st.res, fmt.Errorf("dfsc: read %v: %s", file, fail.Reason)
	}
	c.met.StripeLanes.Add(uint64(len(lanes)))
	for _, ln := range lanes {
		st.res.RMs = append(st.res.RMs, ln.out.RM)
	}

	var wg sync.WaitGroup
	st.lanes = len(lanes)
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln heldLane) {
			defer wg.Done()
			c.stripeLane(ctx, st, rs, file, ln, cfg, root)
		}(ln)
	}

	// The caller's goroutine is the committer: it writes completed
	// segments to w in offset order and combines their verified range
	// sums into the whole-file checksum (CRC combination is not
	// commutative — offset order is mandatory).
	sum := wire.ChecksumBasis
	st.mu.Lock()
	for st.commit < st.numSegs {
		if d, ok := st.done[st.commit]; ok {
			idx := st.commit
			delete(st.done, idx)
			st.commit++
			off, _ := st.segRange(idx)
			st.res.Segments = append(st.res.Segments, SegmentInfo{
				Offset: off, Length: int64(d.buf.Len()), RM: d.rm, Hedged: d.hedged,
			})
			st.res.Bytes += int64(d.buf.Len())
			st.cond.Broadcast() // the commit window advanced
			st.mu.Unlock()
			c.met.Segments.Inc()
			c.mu.Lock()
			c.stats.Segments++
			c.mu.Unlock()
			_, werr := w.Write(d.buf.Bytes())
			sum = wire.ChecksumCombine(sum, d.sum, int64(d.buf.Len()))
			segPool.Put(d.buf)
			st.mu.Lock()
			if werr != nil && st.err == nil {
				st.err = fmt.Errorf("dfsc: writing segment %d: %w", idx, werr)
				st.cond.Broadcast()
			}
			if st.err != nil {
				break
			}
			continue
		}
		if st.err != nil {
			break
		}
		st.cond.Wait()
	}
	err := st.err
	res := st.res
	st.mu.Unlock()
	wg.Wait()

	if err != nil {
		root.SetBytes(res.Bytes).SetOutcome("error")
		return res, err
	}
	res.Checksum = sum
	root.SetBytes(res.Bytes).SetOutcome("ok")
	return res, nil
}

// hedgePoll bounds how long an idle lane sleeps between hedge-eligibility
// scans (eligibility is time-based, so nothing broadcasts it).
const hedgePoll = 5 * time.Millisecond

// stripeLane is one lane goroutine: it claims segments off the shared
// board and streams them from its replica until the read completes, the
// run aborts, or its replica dies with the failover budget spent. ln
// mutates as the lane fails over to replacement replicas.
func (c *Client) stripeLane(ctx context.Context, st *stripeRun, rs RangeStreamer, file ids.FileID, ln heldLane, cfg StripeConfig, root *trace.Span) {
	defer func() {
		ln.release()
		st.mu.Lock()
		st.lanes--
		if st.lanes == 0 {
			st.cond.Broadcast() // committer may be waiting on a dead board
		}
		st.mu.Unlock()
	}()
	for {
		st.mu.Lock()
		idx, hedge, ok := st.claimLocked(ln.out.RM, cfg.HedgeAfter)
		if !ok {
			if st.err != nil || st.commit == st.numSegs {
				st.mu.Unlock()
				return
			}
			// No claimable work right now. Hedge eligibility is a clock,
			// not an event, so poll while anything is in flight; block on
			// the cond otherwise.
			if cfg.HedgeAfter > 0 && len(st.inflight) > 0 {
				st.mu.Unlock()
				time.Sleep(hedgePoll)
			} else {
				st.cond.Wait()
				st.mu.Unlock()
			}
			continue
		}
		if hedge {
			st.res.Hedges++
			c.met.HedgesFired.Inc()
			c.mu.Lock()
			c.stats.Hedges++
			c.mu.Unlock()
		}
		st.mu.Unlock()

		off, length := st.segRange(idx)
		seg := c.tracer.StartChild(root.Context(), "dfsc.segment").
			SetRM(ln.out.RM).SetFile(file).SetRequest(ln.out.Request).SetOffset(off)
		buf := segPool.Get().(*bytes.Buffer)
		buf.Reset()
		buf.Grow(int(length))
		segSum := wire.ChecksumBasis
		n, err := rs.StreamRange(ctx, ln.out.RM, file, ln.out.Request, off, length, buf, &segSum)
		seg.SetBytes(n)

		if err == nil {
			st.mu.Lock()
			if _, raced := st.done[idx]; raced || idx < st.commit {
				// The other copy of a hedged segment won the race; this
				// one is discarded (first-writer-wins).
				seg.SetOutcome("hedge-lost")
				segPool.Put(buf)
			} else {
				st.done[idx] = &stripeDone{buf: buf, sum: segSum, rm: ln.out.RM, hedged: hedge}
				delete(st.inflight, idx)
				if hedge {
					st.res.HedgesWon++
					c.met.HedgesWon.Inc()
					c.mu.Lock()
					c.stats.HedgesWon++
					c.mu.Unlock()
				}
				seg.SetOutcome("ok")
			}
			st.cond.Broadcast()
			st.mu.Unlock()
			seg.End()
			continue
		}
		seg.SetOutcome("failover").End()
		segPool.Put(buf)

		// The lane's replica failed mid-range. Return the segment to the
		// board (unless a hedge already finished it, or this WAS the
		// hedge copy — the original owner still holds it), then try to
		// re-admit the lane on another replica under the shared budget.
		st.mu.Lock()
		if !hedge {
			if _, finished := st.done[idx]; !finished && idx >= st.commit {
				st.requeueLocked(idx)
			}
		}
		st.exclude[ln.out.RM] = true
		if st.failovers >= cfg.MaxFailovers {
			st.laneDeadLocked(file, err)
			st.mu.Unlock()
			return
		}
		st.failovers++
		exclude := make(map[ids.RMID]bool, len(st.exclude))
		for rm := range st.exclude {
			exclude[rm] = true
		}
		st.mu.Unlock()

		ln.release()
		c.sleepJittered(cfg.Backoff)
		start := time.Now()
		repl, _ := c.accessLanesCtx(ctx, file, exclude, 1)
		if len(repl) == 0 {
			st.mu.Lock()
			st.laneDeadLocked(file, err)
			st.mu.Unlock()
			return
		}
		c.met.Failovers.Inc()
		c.met.LaneFailovers.Inc()
		c.met.FailoverLatency.Observe(time.Since(start).Seconds())
		c.mu.Lock()
		c.stats.Failovers++
		c.mu.Unlock()
		st.mu.Lock()
		st.res.Failovers++
		st.res.RMs = append(st.res.RMs, repl[0].out.RM)
		st.mu.Unlock()
		ln = repl[0]
	}
}

// claimLocked hands the lane its next segment: a requeued range first,
// then the next unassigned one inside the commit window, then — when the
// board is drained and hedging is armed — the oldest lagging in-flight
// range owned by a DIFFERENT replica, as a first-writer-wins hedge copy.
// Caller holds st.mu.
func (st *stripeRun) claimLocked(rm ids.RMID, hedgeAfter time.Duration) (idx int, hedge, ok bool) {
	if st.err != nil || st.commit == st.numSegs {
		return 0, false, false
	}
	if len(st.requeue) > 0 {
		idx = st.requeue[0]
		st.requeue = st.requeue[1:]
		st.inflight[idx] = &stripeSeg{rm: rm, start: time.Now()}
		return idx, false, true
	}
	if st.next < st.numSegs && st.next < st.commit+st.window {
		idx = st.next
		st.next++
		st.inflight[idx] = &stripeSeg{rm: rm, start: time.Now()}
		return idx, false, true
	}
	if hedgeAfter > 0 {
		best := -1
		var bestStart time.Time
		for i, s := range st.inflight {
			if s.hedged || s.rm == rm {
				continue
			}
			if time.Since(s.start) < hedgeAfter {
				continue
			}
			if best == -1 || s.start.Before(bestStart) {
				best, bestStart = i, s.start
			}
		}
		if best >= 0 {
			st.inflight[best].hedged = true
			return best, true, true
		}
	}
	return 0, false, false
}

// requeueLocked returns a failed lane's segment to the board, keeping
// the requeue list sorted so low offsets (the ones gating the committer)
// are reassigned first. Caller holds st.mu.
func (st *stripeRun) requeueLocked(idx int) {
	delete(st.inflight, idx)
	at := sort.SearchInts(st.requeue, idx)
	st.requeue = append(st.requeue, 0)
	copy(st.requeue[at+1:], st.requeue[at:])
	st.requeue[at] = idx
	st.cond.Broadcast()
}

// laneDeadLocked records a lane's permanent exit. When it was the last
// lane and segments are still missing, the read cannot finish: the
// terminal error carries the lane's underlying failure. Caller holds
// st.mu (st.lanes itself is decremented by the lane's deferred exit).
func (st *stripeRun) laneDeadLocked(file ids.FileID, cause error) {
	if st.lanes == 1 && st.commit < st.numSegs && st.err == nil {
		st.err = fmt.Errorf("dfsc: read %v: %d failover(s) exhausted, no lane left: %w",
			file, st.failovers, cause)
		st.cond.Broadcast()
	}
}
