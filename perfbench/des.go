package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"dfsqos/internal/cluster"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/workload"
)

// desSweepsPerSec is the nominal sweep rate: a run executes
// round(seconds × desSweepsPerSec) sweeps, at least one.
const desSweepsPerSec = 0.14

// desCase is one cell of the paper's Table I–V sweep.
type desCase struct {
	policy selection.Policy
	users  int
	scen   qos.Scenario
	strat  replication.Strategy
}

func (c desCase) String() string {
	return fmt.Sprintf("%v/%d/%v/%v", c.policy, c.users, c.scen, c.strat)
}

// desSweep lists the sweep: five policies × {64,128,192,256} users ×
// {soft, firm} × static placement and the three Rep(·) strategies.
func desSweep() []desCase {
	var out []desCase
	for _, strat := range []replication.Strategy{
		replication.Static(), replication.Baseline(), replication.Rep(1, 8), replication.Rep(1, 3),
	} {
		for _, scen := range []qos.Scenario{qos.Soft, qos.Firm} {
			for _, pol := range selection.PaperPolicies() {
				for _, users := range []int{64, 128, 192, 256} {
					out = append(out, desCase{policy: pol, users: users, scen: scen, strat: strat})
				}
			}
		}
	}
	return out
}

// config builds the case's cluster configuration the way
// internal/experiments does: the paper's 16 heterogeneous RMs, 1,000
// files and a 7,200 s horizon. Only the RMs' storage differs: the default
// 16 GB leaves so little headroom over the average replica load that
// random static placement overfills an RM for some seeds, and
// cluster.Build refuses the config. Twice the storage makes every seed
// buildable.
func (c desCase) config(seed uint64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.RMStorage *= 2
	cfg.Seed = seed
	cfg.Workload.HorizonSec = 7200
	cfg.Workload.NumUsers = c.users
	cfg.Policy = c.policy
	cfg.Scenario = c.scen
	cfg.Replication = replication.DefaultConfig(c.strat)
	return cfg
}

// desOutcome is the part of a run's results the checks compare.
type desOutcome struct {
	requests, failed, messages int64
	replications, migrations   int64
	failRate, overAllocate     float64
}

func outcomeOf(r *cluster.Results) desOutcome {
	return desOutcome{
		requests: r.TotalRequests, failed: r.FailedRequests, messages: r.Messages,
		replications: r.Replications, migrations: r.Migrations,
		failRate: r.FailRate, overAllocate: r.OverAllocate,
	}
}

// desPass is what one pass over the sweeps measured.
type desPass struct {
	elapsed    time.Duration // summed build and run time of every config
	configs    int
	requests   int64
	messages   int64
	rates      []float64     // each config's simulated requests per second
	cpu        []float64     // each config's simulated requests per CPU second
	p50s, p90s []float64     // each config's dispatch p50 and p90, ms
	p99s       []float64     // each config's dispatch p99, ms
	build, run time.Duration // summed, per-call timing only
	delta      procSample
	peaks      []float64             // each config's peak RSS, MiB
	outcomes   map[desRun]desOutcome // every config's outcome
	cases      []desCase
	sweepSeeds []uint64
}

// desRun names one config of one sweep.
type desRun struct {
	c     desCase
	sweep int
}

// sweepSeeds derives one cluster seed per sweep from the run's seed.
func sweepSeeds(seed uint64, n int) []uint64 {
	src := rng.New(seed).Split("perfbench/paper-des")
	out := make([]uint64, n)
	for i := range out {
		out[i] = src.Uint64()
	}
	return out
}

// runDESPass builds and runs every case of every sweep, one goroutine.
// perCall times cluster.Build and Run separately: the DES layer's spans.
func runDESPass(cases []desCase, seeds []uint64, perCall bool) (desPass, error) {
	p := desPass{outcomes: make(map[desRun]desOutcome), cases: cases, sweepSeeds: seeds}
	// One config's dispatch times, reused: a 256-user config dispatches
	// about 6,500 requests, so the buffer never grows inside a timed run.
	dispatch := make([]time.Duration, 0, 1<<14)
	obs := func(_ workload.Request, _ dfsc.Outcome, wall time.Duration) {
		dispatch = append(dispatch, wall)
	}
	var delta procSample
	for i, seed := range seeds {
		for _, c := range cases {
			// Each config starts from a collected heap returned to the OS,
			// so its peak RSS does not depend on its predecessors.
			debug.FreeOSMemory()
			resetPeakRSS()
			dispatch = dispatch[:0]
			before := sampleProc()
			t0 := time.Now()
			cl, err := cluster.Build(c.config(seed))
			if err != nil {
				return p, fmt.Errorf("build %v: %w", c, err)
			}
			t1 := time.Now()
			res, err := cl.RunWithObserver(obs)
			if err != nil {
				return p, fmt.Errorf("run %v: %w", c, err)
			}
			took := time.Since(t0)
			used := sampleProc().minus(before)
			delta = delta.plus(used)
			p.peaks = append(p.peaks, peakRSSMB())
			if perCall {
				p.build += t1.Sub(t0)
				p.run += took - t1.Sub(t0)
			}
			p.elapsed += took
			p.rates = append(p.rates, float64(res.TotalRequests)/took.Seconds())
			p.cpu = append(p.cpu, float64(res.TotalRequests)/used.cpu.Seconds())
			xs := durationsMS(dispatch)
			p.p50s = append(p.p50s, quantile(xs, 0.5))
			p.p90s = append(p.p90s, quantile(xs, 0.9))
			p.p99s = append(p.p99s, quantile(xs, 0.99))
			p.configs++
			p.requests += res.TotalRequests
			p.messages += res.Messages
			p.outcomes[desRun{c, i}] = outcomeOf(res)
		}
	}
	p.delta = delta
	return p, nil
}

// desSetup prepares a run: the sweep's configurations, each built once
// (untimed, then discarded), so set-up covers constructing every
// simulated cluster the timed pass will build again and lazy
// initialisation is paid before timing.
func desSetup(seed uint64) ([]desCase, error) {
	cases := desSweep()
	for _, c := range cases {
		if _, err := cluster.Build(c.config(seed)); err != nil {
			return nil, fmt.Errorf("build %v: %w", c, err)
		}
	}
	return cases, nil
}

// checkDES verifies the outputs: one case re-run at its seed reproduces
// its results exactly, and the sweeps show the paper's shape at 256
// users, averaged over sweeps (and policies, for replication): policy
// (1,0,0) over-allocates less than (0,0,0) under static placement, and
// some Rep(·) strategy fails fewer firm requests than static placement.
// A single seed can invert the replication ordering, so the check is on
// the averages the paper's tables report.
func checkDES(p desPass) error {
	c := p.cases[0]
	again, err := cluster.RunConfig(c.config(p.sweepSeeds[0]))
	if err != nil {
		return err
	}
	if got, want := outcomeOf(again), p.outcomes[desRun{c, 0}]; got != want {
		return fmt.Errorf("paper-des: %v is not deterministic: %+v then %+v", c, want, got)
	}
	mean := func(pols []selection.Policy, scen qos.Scenario, strat replication.Strategy, f func(desOutcome) float64) float64 {
		var sum float64
		for sweep := range p.sweepSeeds {
			for _, pol := range pols {
				sum += f(p.outcomes[desRun{desCase{policy: pol, users: 256, scen: scen, strat: strat}, sweep}])
			}
		}
		return sum / float64(len(p.sweepSeeds)*len(pols))
	}
	oa := func(o desOutcome) float64 { return o.overAllocate }
	fail := func(o desOutcome) float64 { return o.failRate }
	static := replication.Static()
	rem := mean([]selection.Policy{selection.RemOnly}, qos.Soft, static, oa)
	rnd := mean([]selection.Policy{selection.Random}, qos.Soft, static, oa)
	if !(rem < rnd) {
		return fmt.Errorf("paper-des: at 256 users %v over-allocates %.4f, not less than %v's %.4f",
			selection.RemOnly, rem, selection.Random, rnd)
	}
	pols := selection.PaperPolicies()
	staticFail := mean(pols, qos.Firm, static, fail)
	best := math.Inf(1)
	for _, strat := range []replication.Strategy{replication.Baseline(), replication.Rep(1, 8), replication.Rep(1, 3)} {
		best = math.Min(best, mean(pols, qos.Firm, strat, fail))
	}
	if !(best < staticFail) {
		return fmt.Errorf("paper-des: no Rep(·) strategy beats static on the firm fail rate (%.4f vs %.4f)", best, staticFail)
	}
	return nil
}

// runDES runs the paper-des workload.
func runDES(seed uint64, seconds int, layers bool) (*report, error) {
	sweeps := int(math.Round(float64(seconds) * desSweepsPerSec))
	if sweeps < 1 {
		sweeps = 1
	}
	seeds := sweepSeeds(seed, sweeps)
	var setups []float64
	var cases []desCase
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if cases, err = desSetup(seeds[0]); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	plain, err := runDESPass(cases, seeds, false)
	if err != nil {
		return nil, err
	}
	if err := checkDES(plain); err != nil {
		return nil, err
	}
	r := &report{attempted: plain.requests}
	rate := float64(plain.requests) / plain.elapsed.Seconds()
	r.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	r.add("ops_per_s", "1/s", median(plain.rates),
		fmt.Sprintf("median over %d configs of simulated requests per second", len(plain.rates)))
	r.add("ops_per_cpu_s", "1/cpu-s", median(plain.cpu),
		fmt.Sprintf("median over %d configs of simulated requests per CPU second", len(plain.cpu)))
	r.add("des_requests_per_s", "1/s", rate,
		fmt.Sprintf("%d simulated requests over %d configs in %.3fs", plain.requests, plain.configs, plain.elapsed.Seconds()))
	// Every simulated request is a read admission. A config's seed can
	// make its dispatches many times slower than its neighbours', so the
	// quantiles are per config, then the median across configs.
	for _, q := range []struct {
		name string
		per  []float64
	}{{"read_p50_ms", plain.p50s}, {"read_p90_ms", plain.p90s}, {"read_p99_ms", plain.p99s}} {
		r.add(q.name, "ms", median(q.per), fmt.Sprintf("median over %d configs of the config's dispatch quantile", len(q.per)))
	}
	r.add("fail_ratio", "ratio", 0, "a config that errors fails the run")
	r.add("peak_rss_mb", "MB", median(plain.peaks), fmt.Sprintf("median of %d per-config VmHWM", len(plain.peaks)))
	if !layers {
		return r, nil
	}

	traced, err := runDESPass(cases, seeds, true)
	if err != nil {
		return nil, err
	}
	n := float64(traced.configs)
	r.add("des.configs", "count", n, "")
	r.add("des.requests", "count", float64(traced.requests), "")
	r.add("cluster.build_ms_per_config", "ms", ms(traced.build)/n, "")
	r.add("cluster.run_ms_per_config", "ms", ms(traced.run)/n, "")
	r.add("des.messages_per_request", "count/op", ratio(float64(plain.messages), float64(plain.requests)),
		fmt.Sprintf("%d messages over %d requests", plain.messages, plain.requests))
	r.add("des.allocs_per_request", "count/op", ratio(float64(plain.delta.mallocs), float64(plain.requests)), "")
	runtimeLayers(r, plain.delta, float64(plain.requests))
	r.add("trace.overhead_ratio", "ratio", ratio(median(plain.rates), median(traced.rates)),
		"untraced over per-call-timed requests per second")
	return r, nil
}
