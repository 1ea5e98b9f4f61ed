package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
	"dfsqos/internal/live"
	"dfsqos/internal/rng"
	"dfsqos/internal/wire"
)

// liveSpec describes one live workload: the deployment's shape and the
// op mix its clients draw.
type liveSpec struct {
	name     string
	rms      int
	shards   int // MM shard-group members; 0 serves one MMServer
	shardRep int
	files    int // catalog files placed on RMs at set-up
	fileSize int64
	degree   int // replicas per placed file
	clients  int
	// opsPerSec is the nominal op rate on the reference machine: a run
	// issues seconds × opsPerSec ops, whatever the code under test does.
	opsPerSec float64
	// roundOps bounds the ops between two output checks. Uploads are
	// verified and dropped from the RAM-backed disks after each round,
	// which bounds the memory a run holds.
	roundOps int
	// warmOps is the number of untimed ops per client before timing.
	warmOps int
	// next draws a client's next op.
	next func(g *opGen) op
}

// negotiate: the control plane dominates. 64 KiB files fit the wire
// layer's pooled frame buffers, so the data plane does little.
var negotiateSpec = liveSpec{
	name:      "negotiate",
	rms:       16,
	shards:    3,
	shardRep:  2,
	files:     4096,
	fileSize:  64 << 10,
	degree:    8,
	clients:   2,
	opsPerSec: 700,
	roundOps:  512,
	warmOps:   64,
	next: func(g *opGen) op {
		if g.src.Float64() < 0.2 {
			return op{kind: opWrite, file: g.newFile()}
		}
		return op{kind: opRead, file: g.popular(), width: 1}
	},
}

// stream: the data plane dominates. 16 MiB files stream in 1 MiB stripe
// segments, above the wire pool's 512 KiB limit.
var streamSpec = liveSpec{
	name:      "stream",
	rms:       4,
	files:     32,
	fileSize:  16 << 20,
	degree:    3,
	clients:   2,
	opsPerSec: 26,
	roundOps:  64,
	warmOps:   4,
	next: func(g *opGen) op {
		if g.drawn%8 == 7 {
			return op{kind: opWrite, file: g.newFile()}
		}
		width := 1 + g.reads%2
		g.reads++
		return op{kind: opRead, file: ids.FileID(g.src.Intn(g.files)), width: width}
	},
}

type opKind int

const (
	opRead opKind = iota
	opWrite
)

// op is one generated client operation: a whole-file read at a stripe
// width, or the upload of a file not yet placed.
type op struct {
	kind  opKind
	file  ids.FileID
	width int
}

// opGen draws one client's op sequence.
type opGen struct {
	src    *rng.Source
	files  int
	cat    *catalog.Catalog
	writes *ids.FileID // next unplaced file, shared by every client
	drawn  int
	reads  int
}

// newFile returns the next unplaced catalog file.
func (g *opGen) newFile() ids.FileID {
	f := *g.writes
	*g.writes++
	return f
}

// popular draws a placed file by the catalog's Zipf popularity (rank is
// file ID, so rejecting unplaced IDs keeps the law over placed files).
func (g *opGen) popular() ids.FileID {
	for {
		if f := g.cat.SamplePopular(g.src); int(f) < g.files {
			return f
		}
	}
}

// genOps draws per-client op sequences of n ops each from src.
func genOps(spec *liveSpec, cat *catalog.Catalog, src *rng.Source, n int, writes *ids.FileID) [][]op {
	out := make([][]op, spec.clients)
	for c := range out {
		g := &opGen{src: src.Split(fmt.Sprintf("client/%d", c)), files: spec.files, cat: cat, writes: writes}
		for k := 0; k < n; k++ {
			out[c] = append(out[c], spec.next(g))
			g.drawn++
		}
	}
	return out
}

// opResult is the outcome of one op as the generator saw it.
type opResult struct {
	op
	dur, ttfb time.Duration
	bytes     int64
	err       error
	rm        ids.RMID // serving RM of a read (first lane), admitting RM of an upload
	checksum  uint64
	segments  int
	failovers int
	trace     *opTrace
}

// sink is the io.Writer a read delivers into: it counts bytes and notes
// when the first byte arrived.
type sink struct {
	start time.Time
	first time.Duration
	n     int64
}

func (s *sink) Write(p []byte) (int, error) {
	if s.n == 0 && len(p) > 0 {
		s.first = time.Since(s.start)
	}
	s.n += int64(len(p))
	return len(p), nil
}

// content is the deterministic byte stream uploaded as file f.
type content struct {
	seed uint64
	off  int64
	size int64
}

func newContent(seed uint64, f ids.FileID, size int64) *content {
	return &content{seed: seed ^ (uint64(f)+1)*0x9e3779b97f4a7c15, size: size}
}

func (c *content) Read(p []byte) (int, error) {
	if c.off >= c.size {
		return 0, io.EOF
	}
	if rem := c.size - c.off; int64(len(p)) > rem {
		p = p[:rem]
	}
	for i := 0; i < len(p); {
		k := uint64(c.off) + uint64(i)
		x := (k>>3 + c.seed) * 0xbf58476d1ce4e5b9
		x ^= x >> 31
		if k&7 == 0 && len(p)-i >= 8 {
			binary.LittleEndian.PutUint64(p[i:], x)
			i += 8
			continue
		}
		p[i] = byte(x >> (8 * (k & 7)))
		i++
	}
	c.off += int64(len(p))
	return len(p), nil
}

// checksum folds the whole stream with the wire checksum.
func (c *content) checksum() uint64 {
	buf := make([]byte, 64<<10)
	sum := wire.ChecksumBasis
	for {
		n, err := c.Read(buf)
		sum = wire.ChecksumUpdate(sum, buf[:n])
		if err != nil {
			return sum
		}
	}
}

// do runs one op on client c.
func (d *deployment) do(c *benchClient, o op, seed uint64) opResult {
	res := opResult{op: o}
	tr := c.lt.begin()
	start := time.Now()
	switch o.kind {
	case opRead:
		s := &sink{start: start}
		rr, err := c.cli.ReadStriped(c.stream, o.file, s, dfsc.StripeConfig{Width: o.width, MaxFailovers: maxFailovers})
		res.dur = time.Since(start)
		res.ttfb, res.bytes, res.err = s.first, rr.Bytes, err
		res.checksum, res.segments, res.failovers = rr.Checksum, len(rr.Segments), rr.Failovers
		if len(rr.RMs) > 0 {
			res.rm = rr.RMs[0]
		}
	case opWrite:
		out := c.cli.Store(o.file)
		res.rm = out.RM
		if !out.OK {
			res.err = fmt.Errorf("store %v: %s", o.file, out.Reason)
		} else if rc, ok := c.dir.RMClient(out.RM); !ok {
			res.err = fmt.Errorf("store %v: cannot resolve %v", o.file, out.RM)
		} else {
			up := time.Now()
			res.err = rc.WriteFile(context.Background(), o.file, 0, d.spec.fileSize, newContent(seed, o.file, d.spec.fileSize))
			c.lt.record(tr, layerIngest, up, res.err == nil, d.spec.fileSize)
		}
		res.dur = time.Since(start)
		res.bytes = d.spec.fileSize
	}
	c.lt.finish(tr)
	res.trace = tr
	return res
}

// runStats is what one pass of timed ops produced: every op's result,
// the summed time of the timed rounds, and the counter deltas taken over
// exactly those rounds.
type runStats struct {
	results []opResult
	begin   time.Time // start of the first timed round
	elapsed time.Duration
	delta   counters
	peaks   []float64 // each round's peak RSS, MiB
	rates   []float64 // each round's completed ops per second
	cpu     []float64 // each round's completed ops per process CPU second
}

// runOps runs the clients' op sequences as closed loops, round by round.
// After each round the round's outputs are checked (untimed) and its
// uploads dropped; a wrong output is an error.
func (d *deployment) runOps(ops [][]op, seed uint64) (runStats, error) {
	per := roundPerClient(d.spec)
	var st runStats
	for lo := 0; lo < len(ops[0]); lo += per {
		results := make([][]opResult, len(d.clients))
		var wg sync.WaitGroup
		// Every round starts from a collected heap returned to the OS, so
		// its peak RSS does not depend on the previous round's GC phase.
		debug.FreeOSMemory()
		resetPeakRSS()
		before := d.counters()
		start := time.Now()
		if lo == 0 {
			st.begin = start
		}
		for i, c := range d.clients {
			hi := lo + per
			if hi > len(ops[i]) {
				hi = len(ops[i])
			}
			wg.Add(1)
			go func(i int, c *benchClient, seq []op) {
				defer wg.Done()
				for _, o := range seq {
					results[i] = append(results[i], d.do(c, o, seed))
				}
			}(i, c, ops[i][lo:hi])
		}
		wg.Wait()
		took := time.Since(start)
		st.elapsed += took
		round := d.counters().sub(before)
		st.delta.add(round)
		st.peaks = append(st.peaks, peakRSSMB())
		done := 0
		for _, rs := range results {
			if err := d.check(rs, seed); err != nil {
				return st, err
			}
			for _, r := range rs {
				if r.err == nil {
					done++
				}
			}
			st.results = append(st.results, rs...)
		}
		st.rates = append(st.rates, float64(done)/took.Seconds())
		st.cpu = append(st.cpu, float64(done)/round.proc.cpu.Seconds())
	}
	return st, nil
}

// roundPerClient is the number of ops each client runs per round.
func roundPerClient(spec *liveSpec) int {
	return max(spec.roundOps/spec.clients, 1)
}

// check verifies a round's outputs: every read delivered the whole file
// with the checksum of the serving RM's disk; every upload is stored on
// the admitting RM with the uploaded bytes' checksum and registered with
// the MM. Verified uploads are then dropped from the disk.
func (d *deployment) check(rs []opResult, seed uint64) error {
	for _, r := range rs {
		if r.err != nil {
			continue
		}
		disk, ok := d.disks[r.rm]
		if !ok {
			return fmt.Errorf("%v served by unknown %v", r.file, r.rm)
		}
		name := live.FileName(r.file)
		size, err := disk.Stat(name)
		if err != nil {
			return fmt.Errorf("%v on %v: %w", r.file, r.rm, err)
		}
		if int64(size) != d.spec.fileSize || r.bytes != d.spec.fileSize {
			return fmt.Errorf("%v: %d bytes moved, %d on %v, want %d", r.file, r.bytes, size, r.rm, d.spec.fileSize)
		}
		sum, err := disk.Checksum(name)
		if err != nil {
			return err
		}
		switch r.kind {
		case opRead:
			if r.checksum != sum {
				return fmt.Errorf("read %v from %v: checksum %x, disk has %x", r.file, r.rm, r.checksum, sum)
			}
		case opWrite:
			if want := newContent(seed, r.file, d.spec.fileSize).checksum(); sum != want {
				return fmt.Errorf("upload %v on %v: disk checksum %x, uploaded %x", r.file, r.rm, sum, want)
			}
			if !containsRM(d.probe.Lookup(r.file), r.rm) {
				return fmt.Errorf("upload %v: MM does not list %v as a holder", r.file, r.rm)
			}
			if err := disk.Delete(name); err != nil {
				return err
			}
		}
	}
	return nil
}

func containsRM(rms []ids.RMID, x ids.RMID) bool {
	for _, r := range rms {
		if r == x {
			return true
		}
	}
	return false
}
