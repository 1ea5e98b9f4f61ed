package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/telemetry"
)

func TestNilInjectorProceeds(t *testing.T) {
	d := Decide(nil, PointMMHandle, "Lookup")
	if d.Action != None {
		t.Fatalf("nil injector decided %v, want None", d.Action)
	}
}

func TestAfterAndCount(t *testing.T) {
	s := NewScript(1).Add(Rule{Point: PointRMChunk, After: 2, Count: 2, Action: Drop})
	var got []Action
	for i := 0; i < 6; i++ {
		got = append(got, s.Decide(PointRMChunk, "0").Action)
	}
	want := []Action{None, None, Drop, Drop, None, None}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: got %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if s.Fired(0) != 2 {
		t.Fatalf("Fired(0) = %d, want 2", s.Fired(0))
	}
}

func TestMatchFiltersDetail(t *testing.T) {
	s := NewScript(1).Add(Rule{Point: PointMMHandle, Match: "Lookup", Action: Error})
	if d := s.Decide(PointMMHandle, "RegisterRM"); d.Action != None {
		t.Fatalf("non-matching detail fired %v", d.Action)
	}
	d := s.Decide(PointMMHandle, "Lookup")
	if d.Action != Error {
		t.Fatalf("matching detail decided %v, want Error", d.Action)
	}
	if !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("default error = %v, want ErrInjected", d.Err)
	}
}

func TestWrongPointIgnored(t *testing.T) {
	s := NewScript(1).Add(Rule{Point: PointRMHandle, Action: Kill})
	if d := s.Decide(PointMMHandle, "Open"); d.Action != None {
		t.Fatalf("wrong point fired %v", d.Action)
	}
}

func TestProbIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []Action {
		s := NewScript(seed).Add(Rule{Point: PointRMChunk, Prob: 0.5, Action: Drop})
		out := make([]Action, 64)
		for i := range out {
			out[i] = s.Decide(PointRMChunk, "x").Action
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-draw sequences (suspicious)")
	}
	fired := 0
	for _, act := range a {
		if act == Drop {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob 0.5 fired %d/64 times", fired)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	s := NewScript(1).
		Add(Rule{Point: PointRMHandle, Match: "Open", Action: Delay, Delay: time.Millisecond}).
		Add(Rule{Point: PointRMHandle, Action: Drop})
	if d := s.Decide(PointRMHandle, "Open"); d.Action != Delay || d.Delay != time.Millisecond {
		t.Fatalf("got %v/%v, want Delay/1ms", d.Action, d.Delay)
	}
	if d := s.Decide(PointRMHandle, "CFP"); d.Action != Drop {
		t.Fatalf("fallthrough got %v, want Drop", d.Action)
	}
}

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse("rm.stream.chunk:after=3:action=drop; mm.handle:match=Lookup:prob=0.1:action=error:seed=42; rm.handle:after=10:count=2:action=delay:delay=250ms")
	if err != nil {
		t.Fatal(err)
	}
	// Rule 0: fires on the 4th chunk hit.
	for i := 0; i < 3; i++ {
		if d := s.Decide(PointRMChunk, "0"); d.Action != None {
			t.Fatalf("chunk hit %d fired %v", i, d.Action)
		}
	}
	if d := s.Decide(PointRMChunk, "0"); d.Action != Drop {
		t.Fatalf("chunk hit 4 decided %v, want Drop", d.Action)
	}
	// Rule 2: delay parameter carried through.
	for i := 0; i < 10; i++ {
		s.Decide(PointRMHandle, "Open")
	}
	if d := s.Decide(PointRMHandle, "Open"); d.Action != Delay || d.Delay != 250*time.Millisecond {
		t.Fatalf("rule 2 decided %v/%v", d.Action, d.Delay)
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	for _, empty := range []string{"   ", ";", " ; ;"} {
		if s, err := Parse(empty); err != nil || s != nil {
			t.Fatalf("Parse(%q) = (%v, %v), want (nil, nil)", empty, s, err)
		}
	}
	for _, bad := range []string{
		"rm.handle",                          // no action
		"rm.handle:action=explode",           // unknown action
		"rm.handle:bogus=1:action=drop",      // unknown option
		"rm.handle:after=x:action=drop",      // bad int
		":action=drop",                       // no point
		"rm.handle:afterdrop",                // malformed option
		"rm.handle:delay=later:action=delay", // bad duration
		"rm.handle:prob=NaN:action=drop",     // not a probability
		"rm.handle:prob=-0.5:action=drop",    // negative probability
		"rm.handle:after=-5:action=drop",     // negative after
		"rm.handle:count=-1:action=drop",     // negative count
		"rm.handle:delay=-1s:action=delay",   // negative delay
		"rm.handle:after=-5:count=-1:delay=-1s:action=delay",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseActionRoundTrip(t *testing.T) {
	for _, a := range []Action{None, Drop, Delay, Error, PartialWrite, Kill} {
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAction(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAction("explode"); err == nil {
		t.Fatal("unknown action accepted")
	}
}

func TestMetricsCountInjected(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewScript(1).Add(Rule{Point: PointRMChunk, Action: Drop})
	s.SetMetrics(NewMetrics(reg))
	s.Decide(PointRMChunk, "0")
	s.Decide(PointRMChunk, "64")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, `dfsqos_faults_injected_total{action="drop",point="rm.stream.chunk"} 2`) &&
		!strings.Contains(text, `dfsqos_faults_injected_total{point="rm.stream.chunk",action="drop"} 2`) {
		t.Fatalf("exposition missing injected counter:\n%s", text)
	}
}
