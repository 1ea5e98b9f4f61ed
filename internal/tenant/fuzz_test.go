package tenant

import (
	"math"
	"reflect"
	"testing"
)

// FuzzParseQuotas feeds arbitrary -tenant-quotas specs to ParseQuotas:
// no input may panic, an accepted spec must parse to the same quotas
// twice, and every accepted quota must be one the ledger can enforce.
func FuzzParseQuotas(f *testing.F) {
	for _, seed := range []string{
		"",
		" 1=4Mbps:1GB:2, 2=2Mbps, 3=::0.5, 4=0:0 ",
		"1=1Mbps,1=2Mbps",
		"1=NaN",
		"1=::NaN",
		"1=inf:inf:inf",
		"1=1e300GBps",
		"7=1e308Gbps:1e30GB:1e-300",
		"2147483648=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		q1, err1 := ParseQuotas(spec)
		q2, err2 := ParseQuotas(spec)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ParseQuotas(%q) errors differ: %v vs %v", spec, err1, err2)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("ParseQuotas(%q) = %v, then %v", spec, q1, q2)
		}
		for id, q := range q1 {
			bw := float64(q.Bandwidth)
			if id <= 0 ||
				!(bw >= 0 || q.Bandwidth == NoLimit) || math.IsInf(bw, 0) ||
				!(q.Bytes >= 0 || q.Bytes == NoLimit) ||
				!(q.Weight > 0) || math.IsInf(q.Weight, 0) {
				t.Fatalf("ParseQuotas(%q) accepted tenant %v with %+v", spec, id, q)
			}
		}
	})
}
