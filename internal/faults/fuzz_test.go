package faults

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary -faults specs to Parse: no input may panic,
// an accepted spec must parse to the same script twice, and every rule
// it accepts must be armable (a point, an action, a real probability).
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"rm.stream.chunk:after=3:action=drop",
		"mm.handle:match=Lookup:prob=0.1:action=error:seed=42",
		"rm.handle:after=10:count=2:action=delay:delay=250ms; rm.stream.chunk:action=kill",
		"rm.handle:prob=NaN:action=drop",
		"rm.handle:prob=-1:action=partial",
		";;x:action=none",
		" ; ;",
		"a:b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s1, err1 := Parse(spec)
		s2, err2 := Parse(spec)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Parse(%q) errors differ: %v vs %v", spec, err1, err2)
		}
		if err1 != nil || s1 == nil {
			if s1 != nil || s2 != nil {
				t.Fatalf("Parse(%q) returned a script with %v", spec, err1)
			}
			return
		}
		if len(s1.rules) == 0 || len(s1.rules) != len(s2.rules) {
			t.Fatalf("Parse(%q): %d vs %d rules", spec, len(s1.rules), len(s2.rules))
		}
		for i, r := range s1.rules {
			if *r != *s2.rules[i] {
				t.Fatalf("Parse(%q) rule %d: %+v vs %+v", spec, i, *r, *s2.rules[i])
			}
			if r.Point == "" || r.Action <= None || r.Action > Kill || !(r.Prob >= 0) {
				t.Fatalf("Parse(%q) accepted an unarmable rule %+v", spec, *r)
			}
		}
		if !reflect.DeepEqual(s1.src, s2.src) {
			t.Fatalf("Parse(%q): scripts seeded differently", spec)
		}
	})
}
