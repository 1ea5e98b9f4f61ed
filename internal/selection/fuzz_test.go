package selection

import (
	"math"
	"testing"
)

// FuzzParsePolicy feeds arbitrary policy strings to ParsePolicy: no input
// may panic, an accepted string must parse to the same policy twice, its
// weights must be finite and non-negative, and its String form must parse
// back to it.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{"(1,0,0)", "1,1,1", " ( 0 , 0 , 0 ) ", "(1,1,1,0.5)", "(NaN,0,0)", "(inf,0,0)", "(1e-320,0,0,5e300)", "", "((1,0,0))"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p1, err1 := ParsePolicy(s)
		p2, err2 := ParsePolicy(s)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ParsePolicy(%q) errors differ: %v vs %v", s, err1, err2)
		}
		if err1 != nil {
			return
		}
		if p1 != p2 {
			t.Fatalf("ParsePolicy(%q) = %v, then %v", s, p1, p2)
		}
		for _, w := range []float64{p1.Alpha, p1.Beta, p1.Gamma, p1.Delta} {
			if !(w >= 0) || math.IsInf(w, 0) {
				t.Fatalf("ParsePolicy(%q) accepted weight %v", s, w)
			}
		}
		if back, err := ParsePolicy(p1.String()); err != nil || back != p1 {
			t.Fatalf("ParsePolicy(%q) = %v, whose String %q parses to (%v, %v)", s, p1, p1.String(), back, err)
		}
	})
}
