// Command perfbench is the repository benchmark: seeded workloads run
// against the real code, every end-to-end metric printed by name with its
// unit, every output checked. See README.md for the workloads, the
// metrics and what each layer metric is expected to move.
//
//	perfbench --workload negotiate|stream|paper-des --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is
// the traced run: an untraced pass for the counters and the tracing
// baseline, then a pass with every client call into mm, rm and the data
// plane timed from outside, which yields the per-layer metrics. The last
// line of standard output is one JSON object; a failed output check exits
// 1 and prints no metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"dfsqos/internal/ids"
	"dfsqos/internal/rng"
)

// setupRepeats is how many times a run sets its deployment up; setup_s
// is the median.
const setupRepeats = 3

// declared is a metric of the JSON result, as BENCHMARK.json declares it.
type declared struct{ name, unit string }

// endToEnd lists the end-to-end metrics of the JSON result with --trace
// 0, in BENCHMARK.json order. Every workload reports each of them.
var endToEnd = []declared{
	{"setup_s", "s"}, {"ops_per_cpu_s", "1/cpu-s"}, {"read_p50_ms", "ms"}, {"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the JSON result with --trace 1,
// in BENCHMARK.json order. A layer a workload does not run reads 0.
var perLayer = []declared{
	{"ops.count", "count"}, {"reads.count", "count"}, {"writes.count", "count"},
	{"dfsc.self_us_per_op", "us"}, {"dfsc.cfp_per_op", "count/op"}, {"dfsc.open_accept_ratio", "ratio"},
	{"dfsc.segments_per_read", "count/op"}, {"dfsc.failovers", "count"},
	{"mm.lookup.calls", "count"}, {"mm.lookup.calls_per_op", "count/op"},
	{"mm.lookup.rtt_p50_us", "us"}, {"mm.lookup.rtt_p99_us", "us"}, {"mm.lookup.server_p50_us", "us"},
	{"mm.add_replica.rtt_p50_us", "us"}, {"mm.rms.rtt_p50_us", "us"},
	{"rm.cfp.calls", "count"}, {"rm.cfp.rtt_p50_us", "us"}, {"rm.cfp.rtt_p99_us", "us"}, {"rm.cfp.server_p50_us", "us"},
	{"rm.open.calls", "count"}, {"rm.open.rtt_p50_us", "us"}, {"rm.open.server_p50_us", "us"},
	{"rm.close.rtt_p50_us", "us"}, {"rm.store.rtt_p50_us", "us"},
	{"stream.calls", "count"}, {"stream.call_p50_ms", "ms"}, {"stream.mb_s", "MB/s"}, {"stream.server_p50_ms", "ms"},
	{"ingest.p50_ms", "ms"}, {"ingest.mb_s", "MB/s"},
	{"wire.frames", "count"}, {"wire.gob_frames_per_op", "count/op"}, {"wire.binary_frames_per_op", "count/op"},
	{"wire.gob_share", "ratio"},
	{"transport.calls_per_op", "count/op"}, {"transport.dials", "count"},
	{"blkio.throttle_wait_s", "s"},
	{"des.configs", "count"}, {"des.requests", "count"},
	{"cluster.build_ms_per_config", "ms"}, {"cluster.run_ms_per_config", "ms"},
	{"des.messages_per_request", "count/op"}, {"des.allocs_per_request", "count/op"},
	{"go.allocs_per_op", "count/op"}, {"go.bytes_per_op", "B/op"}, {"go.gc_per_kop", "count/kop"},
	{"proc.cpu_us_per_op", "us"},
	{"trace.overhead_ratio", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "negotiate, stream or paper-des")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed draws the same inputs")
	seconds := flag.Int("seconds", 10, "nominal run length; sets the fixed op count of the run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()

	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	r, err := run(*workload, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := endToEnd
	if *traced == 1 {
		names = perLayer
	}
	out, err := result(r, names, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("# %s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *traced)
	for _, m := range r.metrics {
		fmt.Printf("%-30s %16.6f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Println(string(out))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed uint64, seconds int, layers bool) (*report, error){
	negotiateSpec.name: func(seed uint64, seconds int, layers bool) (*report, error) {
		return runLive(&negotiateSpec, seed, seconds, layers)
	},
	streamSpec.name: func(seed uint64, seconds int, layers bool) (*report, error) {
		return runLive(&streamSpec, seed, seconds, layers)
	},
	"paper-des": runDES,
}

// run dispatches to the workload.
func run(workload string, seed uint64, seconds int, layers bool) (*report, error) {
	w, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want negotiate, stream or paper-des)", workload)
	}
	return w(seed, seconds, layers)
}

// result renders the final JSON line with the declared metrics. An
// end-to-end metric must have been measured; a per-layer metric a
// workload does not exercise reads 0. A measured metric must carry its
// declared unit.
func result(r *report, decl []declared, zeroMissing bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	have := make(map[string]metric, len(r.metrics))
	for _, m := range r.metrics {
		have[m.name] = m
	}
	ms := make(map[string]value, len(decl))
	for _, dm := range decl {
		m, ok := have[dm.name]
		switch {
		case ok && m.unit != dm.unit:
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", dm.name, m.unit, dm.unit)
		case ok && (math.IsNaN(m.value) || math.IsInf(m.value, 0)):
			return nil, fmt.Errorf("metric %s is %v", dm.name, m.value)
		case ok:
			ms[dm.name] = value{m.value, m.unit}
		case zeroMissing:
			ms[dm.name] = value{0, dm.unit}
		default:
			return nil, fmt.Errorf("metric %s was not measured", dm.name)
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.attempted, r.failed, ms})
}

// opsPerClient is a run's fixed op count per client: seconds at the
// nominal rate, rounded up to whole rounds.
func opsPerClient(spec *liveSpec, seconds int) int {
	per := roundPerClient(spec)
	n := int(math.Ceil(float64(seconds) * spec.opsPerSec / float64(spec.clients) / float64(per)))
	if n < 1 {
		n = 1
	}
	return n * per
}

// prepare builds and warms a deployment and draws the timed ops: every
// provisioned file's checksum memo is built, every client has dialled
// every RM and run its untimed warm-up ops.
func prepare(spec *liveSpec, seed uint64, n int, traced bool) (*deployment, [][]op, error) {
	catalogFiles := spec.files + spec.clients*(n+spec.warmOps) // room for every op to upload
	ring := 1 << 10
	for ring < 64*spec.clients*n {
		ring <<= 1
	}
	d, err := build(spec, seed, catalogFiles, traced, ring)
	if err != nil {
		return nil, nil, err
	}
	src := rng.New(seed).Split("perfbench/" + spec.name + "/ops")
	writes := ids.FileID(spec.files)
	warm := genOps(spec, d.cat, src.Split("warm"), spec.warmOps, &writes)
	ops := genOps(spec, d.cat, src.Split("timed"), n, &writes)
	err = d.warmChecksums()
	if err == nil {
		err = d.dialAll()
	}
	if err == nil {
		var st runStats
		st, err = d.runOps(warm, seed)
		for _, res := range st.results {
			if res.err != nil && err == nil {
				err = fmt.Errorf("warm-up %v: %w", res.file, res.err)
			}
		}
	}
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d, ops, nil
}

// runLive runs a live workload. Without layers it sets up setupRepeats
// times (setup_s is the median) and runs the timed ops on the last
// deployment. With layers it runs the ops untraced, for the counters and
// the tracing baseline, then traced on a fresh deployment.
func runLive(spec *liveSpec, seed uint64, seconds int, layers bool) (*report, error) {
	n := opsPerClient(spec, seconds)
	r := &report{}
	repeats := setupRepeats
	if layers {
		repeats = 1
	}
	var setups []float64
	var d *deployment
	var ops [][]op
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		if d, ops, err = prepare(spec, seed, n, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	plain, err := d.runOps(ops, seed)
	d.close()
	if err != nil {
		return nil, err
	}
	r.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	liveEndToEnd(r, plain)
	r.add("peak_rss_mb", "MB", median(plain.peaks), fmt.Sprintf("median of %d per-round VmHWM", len(plain.peaks)))
	if !layers {
		return r, nil
	}
	d, ops, err = prepare(spec, seed, n, true)
	if err != nil {
		return nil, err
	}
	traced, err := d.runOps(ops, seed)
	spans := d.tracer.Snapshot()
	d.close()
	if err != nil {
		return nil, err
	}
	liveLayers(r, plain, traced, spans)
	return r, nil
}
