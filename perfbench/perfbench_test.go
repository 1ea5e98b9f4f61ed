package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ids"
)

// smallNegotiate is the negotiate workload shrunk for tests: one client,
// so every admission decision is a pure function of the op sequence.
func smallNegotiate() *liveSpec {
	s := negotiateSpec
	s.rms, s.files, s.degree, s.clients, s.roundOps, s.warmOps = 8, 256, 4, 1, 32, 8
	return &s
}

// smallStream is the stream workload shrunk for tests.
func smallStream() *liveSpec {
	s := streamSpec
	s.files, s.fileSize, s.clients, s.roundOps, s.warmOps = 8, 4<<20, 1, 8, 2
	return &s
}

// passOut is one pass's results plus the program-side counters the
// equivalence test compares.
type passOut struct {
	st    runStats
	stats []dfsc.Stats
	opens map[ids.RMID]int64
	cfps  map[ids.RMID]int64
}

func runPass(t *testing.T, spec *liveSpec, seed uint64, n int, traced bool, cfpDelay time.Duration) passOut {
	t.Helper()
	d, ops, err := prepare(spec, seed, n, traced)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	for _, c := range d.clients {
		if c.lt != nil {
			c.lt.cfpDelay = cfpDelay
		}
	}
	st, err := d.runOps(ops, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := passOut{st: st, opens: make(map[ids.RMID]int64), cfps: make(map[ids.RMID]int64)}
	for _, c := range d.clients {
		out.stats = append(out.stats, c.cli.Stats())
	}
	for _, s := range d.rmSrvs {
		ns := s.Node().Stats()
		out.opens[s.Node().Info().ID] = ns.Opens
		out.cfps[s.Node().Info().ID] = ns.CFPs
	}
	for _, r := range st.results {
		if r.err != nil {
			t.Fatalf("op %+v failed: %v", r.op, r.err)
		}
	}
	return out
}

// TestWrappersPreservePath runs one seed untraced and traced: the timing
// wrappers must not change which path dfsc takes, so every op outcome,
// the dfsc counters, the segment counts and the per-RM opens agree.
func TestWrappersPreservePath(t *testing.T) {
	for _, spec := range []*liveSpec{smallNegotiate(), smallStream()} {
		t.Run(spec.name, func(t *testing.T) {
			plain := runPass(t, spec, 7, 24, false, 0)
			traced := runPass(t, spec, 7, 24, true, 0)
			if len(plain.st.results) != len(traced.st.results) {
				t.Fatalf("%d ops untraced, %d traced", len(plain.st.results), len(traced.st.results))
			}
			for i, p := range plain.st.results {
				q := traced.st.results[i]
				if p.op != q.op || p.rm != q.rm || p.bytes != q.bytes || p.checksum != q.checksum ||
					p.segments != q.segments || p.failovers != q.failovers {
					t.Errorf("op %d: untraced %+v on %v (%d segments), traced %+v on %v (%d segments)",
						i, p.op, p.rm, p.segments, q.op, q.rm, q.segments)
				}
				if q.trace == nil || len(q.trace.spans) == 0 {
					t.Errorf("op %d: traced pass recorded no spans", i)
				}
			}
			for i := range plain.stats {
				if plain.stats[i] != traced.stats[i] {
					t.Errorf("client %d: dfsc stats untraced %+v, traced %+v", i, plain.stats[i], traced.stats[i])
				}
			}
			for id, n := range plain.opens {
				if traced.opens[id] != n || traced.cfps[id] != plain.cfps[id] {
					t.Errorf("%v: untraced %d opens %d CFPs, traced %d opens %d CFPs",
						id, n, plain.cfps[id], traced.opens[id], traced.cfps[id])
				}
			}
		})
	}
}

// TestWidthTwoReadsStripe guards the RangeStreamer forwarding: a width-2
// read through the wrappers must run the striped scheduler (several
// segments over two lanes), not fall back to the sequential reader.
func TestWidthTwoReadsStripe(t *testing.T) {
	out := runPass(t, smallStream(), 3, 8, true, 0)
	for _, r := range out.st.results {
		if r.kind == opRead && r.width == 2 && r.segments < 2 {
			t.Fatalf("width-2 read of %v delivered %d segment(s)", r.file, r.segments)
		}
	}
}

// opTimes returns, per op, its duration, the client's self time and the
// union of its rm.cfp spans, in milliseconds. It also checks that self
// time plus the union of the child spans is each op's duration.
func opTimes(t *testing.T, st runStats) (dur, self, cfp []float64) {
	t.Helper()
	for i, r := range st.results {
		s, children := opSelf(r.trace)
		whole := r.trace.end.Sub(r.trace.start)
		if s+children != whole || s < 0 {
			t.Fatalf("op %d: self %v + children %v != duration %v", i, s, children, whole)
		}
		var cfps []span
		for _, sp := range r.trace.spans {
			if sp.layer == layerCFP {
				cfps = append(cfps, sp)
			}
		}
		dur = append(dur, ms(whole))
		self = append(self, ms(s))
		cfp = append(cfp, ms(covered(cfps, r.trace.start, r.trace.end)))
	}
	return dur, self, cfp
}

// TestAttributionFollowsInjectedDelay slows every CFP by a fixed delay
// inside the wrapper: the traced run must charge the added op time to
// rm.cfp, leaving the client's self time and the time outside rm.cfp
// where they were. Medians keep the comparison of two runs robust to a
// noisy machine; the delay is large against that noise.
func TestAttributionFollowsInjectedDelay(t *testing.T) {
	const delay = 20 * time.Millisecond
	dms := ms(delay)
	spec := smallNegotiate()
	base := runPass(t, spec, 11, 40, true, 0)
	slow := runPass(t, spec, 11, 40, true, delay)
	dur0, self0, cfp0 := opTimes(t, base.st)
	dur1, self1, cfp1 := opTimes(t, slow.st)
	for i, c := range cfp1 {
		if c < dms {
			t.Fatalf("op %d: rm.cfp covers %.3f ms, less than the %v injected", i, c, delay)
		}
	}
	outside := func(dur, cfp []float64) []float64 {
		out := make([]float64, len(dur))
		for i := range dur {
			out[i] = dur[i] - cfp[i]
		}
		return out
	}
	out0, out1 := median(outside(dur0, cfp0)), median(outside(dur1, cfp1))
	addedOp, addedSelf := median(dur1)-median(dur0), median(self1)-median(self0)
	t.Logf("median per op: duration +%.3f ms, outside rm.cfp %.3f -> %.3f ms, dfsc self +%.3f ms", addedOp, out0, out1, addedSelf)
	if addedOp < dms/2 {
		t.Errorf("a %v CFP delay added only %.3f ms per op", delay, addedOp)
	}
	if d := out1 - out0; d > dms/4 || d < -dms/4 {
		t.Errorf("op time outside rm.cfp moved by %.3f ms: the delay is not attributed to rm.cfp", d)
	}
	if addedSelf > dms/4 {
		t.Errorf("dfsc self time gained %.3f ms per op from a delay inside rm.cfp", addedSelf)
	}
	r := &report{}
	liveLayers(r, slow.st, slow.st, nil)
	for _, m := range r.metrics {
		if m.name == "rm.cfp.rtt_p50_us" && m.value < float64(delay/time.Microsecond) {
			t.Errorf("rm.cfp.rtt_p50_us = %.0f, below the injected %v", m.value, delay)
		}
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json declares
// exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	same := func(kind string, json []struct{ Name, Unit string }, prog []declared) {
		if len(json) != len(prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(json), len(prog))
			return
		}
		for i := range prog {
			if json[i].Name != prog[i].name || json[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, json[i].Name, json[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
