// Package faults is the deterministic fault-injection substrate of the
// live deployment: a small rule engine that decides, at named injection
// points threaded through the TCP servers, whether to drop the connection,
// delay the handler, serve an error, tear a frame mid-write, or kill the
// whole server process ("crash" an RM without a second OS process).
//
// Determinism is the design center. Rules fire on exact hit counts
// (After/Count) or on a probability drawn from a seedable stream, so a
// chaos test that passes once passes every time: the same seed and the
// same call order produce the same injected faults. A nil Injector is the
// universal default — every hook site treats nil as "no faults", so the
// production path pays one nil check and nothing else.
//
// The package is also reachable from the daemons through Parse, which
// turns a compact spec string (hidden -faults flag) into a Script:
//
//	rm.stream.chunk:after=3:action=drop
//	mm.handle:match=Lookup:prob=0.1:action=error:seed=42
//	rm.handle:after=10:count=2:action=delay:delay=250ms
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dfsqos/internal/rng"
	"dfsqos/internal/telemetry"
)

// Point names an injection site. The live servers define the vocabulary;
// the canonical points are listed here so tests and specs share spelling.
type Point string

// Canonical injection points threaded through internal/live.
const (
	// PointMMHandle fires before the MM server handles a request;
	// detail is the message kind ("Lookup", "RegisterRM", ...).
	PointMMHandle Point = "mm.handle"
	// PointRMHandle fires before an RM server handles a control-plane
	// request; detail is the message kind ("CFP", "Open", ...).
	PointRMHandle Point = "rm.handle"
	// PointRMChunk fires before each data-plane chunk write of a ReadFile
	// stream; detail is the decimal byte offset of the chunk.
	PointRMChunk Point = "rm.stream.chunk"
	// PointShardMirror fires before an MM shard mirrors a replica-map
	// mutation to a successor shard; detail is the mutation name
	// ("AddReplica", ...). Drop (or Kill) suppresses the mirror send —
	// the shape of a shard-to-shard partition; Error aborts it; Delay
	// stalls it.
	PointShardMirror Point = "mm.shard.mirror"
	// PointShardHandoff fires before an MM shard pushes a keyspace
	// handoff batch to a peer; detail is the direction ("takeover" or
	// "heal"). Same action semantics as PointShardMirror.
	PointShardHandoff Point = "mm.shard.handoff"
)

// Action is what an armed fault does at its point.
type Action int

// The injectable failure modes.
const (
	// None lets the operation proceed untouched.
	None Action = iota
	// Drop closes the connection mid-exchange (peer sees EOF/reset).
	Drop
	// Delay stalls the handler for Decision.Delay before proceeding.
	Delay
	// Error serves Decision.Err to the peer as a remote error.
	Error
	// PartialWrite writes a torn frame (header + truncated body) and then
	// drops the connection — the shape of a crash mid-write.
	PartialWrite
	// Kill crashes the whole server: listener and every open connection
	// close, as if the daemon died. Only meaningful at server-owned sites.
	Kill
)

// String implements fmt.Stringer for specs and metrics labels.
func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case PartialWrite:
		return "partial"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// ParseAction inverts String.
func ParseAction(s string) (Action, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none":
		return None, nil
	case "drop":
		return Drop, nil
	case "delay":
		return Delay, nil
	case "error":
		return Error, nil
	case "partial", "partialwrite", "partial-write":
		return PartialWrite, nil
	case "kill":
		return Kill, nil
	}
	return None, fmt.Errorf("faults: unknown action %q", s)
}

// Decision is an injector's verdict at one hook site.
type Decision struct {
	Action Action
	// Delay applies when Action == Delay.
	Delay time.Duration
	// Err applies when Action == Error (nil uses ErrInjected).
	Err error
}

// ErrInjected is the default error served by an Error decision.
var ErrInjected = errors.New("faults: injected failure")

// Proceed is the zero decision: no fault.
var Proceed = Decision{}

// Injector decides at each hook site. Implementations must be safe for
// concurrent use: the live servers consult them from many connection
// goroutines at once. A nil Injector means "never inject"; hook sites
// call Decide through the free function below so they need no nil checks.
type Injector interface {
	Decide(point Point, detail string) Decision
}

// Decide consults inj, treating nil as "no faults". This is the form the
// hook sites use, keeping the default path branch-predictable.
func Decide(inj Injector, point Point, detail string) Decision {
	if inj == nil {
		return Proceed
	}
	return inj.Decide(point, detail)
}

// Rule is one armed fault in a Script. The zero value matches nothing
// useful; set at least Point and Action.
type Rule struct {
	// Point selects the hook site this rule applies to.
	Point Point
	// Match, when non-empty, further requires the site detail to contain
	// this substring (e.g. a message kind, or a byte offset).
	Match string
	// After skips the first After matching hits before the rule arms.
	After int
	// Count bounds how many hits the rule fires on once armed; 0 means
	// "every hit from After on".
	Count int
	// Prob, when in (0,1), gates each armed hit on a draw from the
	// script's seeded stream; 0 (or ≥1) fires deterministically.
	Prob float64
	// Action is the injected failure mode.
	Action Action
	// Delay parameterizes Delay actions.
	Delay time.Duration
	// Err parameterizes Error actions (nil: ErrInjected).
	Err error

	hits  int // matching hits seen (guarded by Script.mu)
	fired int // times the rule actually fired
}

// Script is a deterministic Injector: an ordered rule list evaluated
// under one mutex, with an optional seeded random stream for Prob gates.
// First matching armed rule wins. The zero value is unusable; build with
// NewScript.
type Script struct {
	mu    sync.Mutex
	rules []*Rule
	src   *rng.Source
	// injected counts fired decisions by point+action; nil-safe no-op
	// metrics by default.
	met *Metrics
}

// NewScript builds an empty script whose probability gates draw from a
// stream seeded with seed (the draw order is the hit order, so equal
// seeds and equal traffic produce equal fault sequences).
func NewScript(seed uint64) *Script {
	return &Script{src: rng.New(seed), met: NewMetrics(nil)}
}

// SetMetrics routes injection telemetry (default: no-op). Safe to call
// before traffic starts.
func (s *Script) SetMetrics(m *Metrics) {
	if m == nil {
		m = NewMetrics(nil)
	}
	s.mu.Lock()
	s.met = m
	s.mu.Unlock()
}

// Add appends a rule and returns the script for chaining.
func (s *Script) Add(r Rule) *Script {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, &r)
	return s
}

// Fired reports how many times rule i has fired (test assertions).
func (s *Script) Fired(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.rules) {
		return 0
	}
	return s.rules[i].fired
}

// Decide implements Injector.
func (s *Script) Decide(point Point, detail string) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rules {
		if r.Point != point {
			continue
		}
		if r.Match != "" && !strings.Contains(detail, r.Match) {
			continue
		}
		r.hits++
		if r.hits <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && s.src.Float64() >= r.Prob {
			continue
		}
		r.fired++
		s.met.count(point, r.Action)
		err := r.Err
		if err == nil {
			err = ErrInjected
		}
		return Decision{Action: r.Action, Delay: r.Delay, Err: err}
	}
	return Proceed
}

// Parse turns a semicolon-separated list of rule specs into a Script.
// Each rule is a colon-separated sequence starting with the point name,
// followed by key=value options: match, after, count, prob, action,
// delay, seed (seed applies to the whole script; last one wins).
//
//	rm.stream.chunk:after=3:action=drop
//	mm.handle:match=Lookup:prob=0.25:action=error:seed=7
//
// A spec with no rules (empty, or only separators) yields (nil, nil): no
// injector, so the hook sites stay on their nil fast path.
func Parse(spec string) (*Script, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var seed uint64 = 1
	var rules []Rule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		r := Rule{Point: Point(strings.TrimSpace(fields[0]))}
		if r.Point == "" {
			return nil, fmt.Errorf("faults: rule %q has no point", part)
		}
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				return nil, fmt.Errorf("faults: malformed option %q in %q", f, part)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			var err error
			switch k {
			case "match":
				r.Match = v
			case "after":
				r.After, err = nonNegative(strconv.Atoi(v))
			case "count":
				r.Count, err = nonNegative(strconv.Atoi(v))
			case "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
				if err == nil && !(r.Prob >= 0) {
					err = fmt.Errorf("%v is not a probability", r.Prob)
				}
			case "action":
				r.Action, err = ParseAction(v)
			case "delay":
				r.Delay, err = nonNegative(time.ParseDuration(v))
			case "seed":
				seed, err = strconv.ParseUint(v, 10, 64)
			default:
				return nil, fmt.Errorf("faults: unknown option %q in %q", k, part)
			}
			if err != nil {
				return nil, fmt.Errorf("faults: option %q in %q: %w", k, part, err)
			}
		}
		if r.Action == None {
			return nil, fmt.Errorf("faults: rule %q has no action", part)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, nil
	}
	s := NewScript(seed)
	for _, r := range rules {
		s.Add(r)
	}
	return s, nil
}

// nonNegative passes a parsed option through, refusing a negative one: a
// negative after or count would arm on the first hit and never stop
// firing, and a negative delay would stall for nothing.
func nonNegative[T int | time.Duration](v T, err error) (T, error) {
	if err == nil && v < 0 {
		err = fmt.Errorf("%v is negative", v)
	}
	return v, err
}

// Metrics counts injected faults by point and action
// (dfsqos_faults_injected_total{point,action}) so a chaos run's injected
// failure mix is visible on the same /metrics page as its effects.
type Metrics struct {
	injected *telemetry.CounterVec
}

// NewMetrics registers the fault metric family on reg (nil reg yields a
// live no-op sink).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		injected: reg.NewCounterVec("dfsqos_faults_injected_total",
			"Faults injected by the chaos substrate, by point and action.",
			"point", "action"),
	}
}

// count records one fired decision.
func (m *Metrics) count(point Point, action Action) {
	m.injected.With(string(point), action.String()).Inc()
}
