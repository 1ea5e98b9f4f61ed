package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMbpsMatchesPaperEquivalence(t *testing.T) {
	// The paper states 128 Mbit/s == 16 MB/s.
	if got := Mbps(128).ToMBps(); got != 16 {
		t.Fatalf("Mbps(128) = %v MB/s, want 16", got)
	}
	if got := Mbps(18); math.Abs(float64(got)-2.25e6) > 1e-9 {
		t.Fatalf("Mbps(18) = %v B/s, want 2.25e6", float64(got))
	}
}

func TestKbpsAndMBps(t *testing.T) {
	if got := Kbps(8000); got != Mbps(8) {
		t.Fatalf("Kbps(8000)=%v want %v", got, Mbps(8))
	}
	if got := MBps(2); float64(got) != 2e6 {
		t.Fatalf("MBps(2)=%v want 2e6", float64(got))
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		in   BytesPerSec
		want string
	}{
		{Mbps(18), "18.00 Mbit/s"},
		{Mbps(1800), "1.80 Gbit/s"},
		{Kbps(500), "500.00 kbit/s"},
		{BytesPerSec(10), "80 bit/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v B/s) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestSizeString(t *testing.T) {
	cases := []struct {
		in   Size
		want string
	}{
		{1500 * MB, "1.50 GB"},
		{4 * MB, "4.00 MB"},
		{2 * KB, "2.00 kB"},
		{999, "999 B"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestParseRate(t *testing.T) {
	cases := []struct {
		in   string
		want BytesPerSec
	}{
		{"18Mbps", Mbps(18)},
		{"1.8 Mbit/s", Mbps(1.8)},
		{"16MB/s", MBps(16)},
		{"128 mbps", Mbps(128)},
		{"2048Kbps", Kbps(2048)},
		{"0.5Gbps", Mbps(500)},
		{"2250000", BytesPerSec(2250000)},
		{"12 kbit/s", Kbps(12)},
	}
	for _, c := range cases {
		got, err := ParseRate(c.in)
		if err != nil {
			t.Errorf("ParseRate(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-6 {
			t.Errorf("ParseRate(%q) = %v, want %v", c.in, float64(got), float64(c.want))
		}
	}
}

func TestParseRateErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "12xy/s", "Mbps", "NaN", "inf Mbps", "-Inf", "1e300GBps"} {
		if _, err := ParseRate(in); err == nil {
			t.Errorf("ParseRate(%q): expected error", in)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want Size
	}{
		{"4MB", 4 * MB},
		{"16 GB", 16 * GB},
		{"512KiB", 512 * KiB},
		{"1GiB", GiB},
		{"100", 100},
		{"2.5kb", 2500},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Errorf("ParseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseSizeErrors(t *testing.T) {
	for _, in := range []string{"", "big", "MB", "NaN", "Inf GB", "1e19", "-1e30 KiB"} {
		if _, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q): expected error", in)
		}
	}
}

func TestDurationSec(t *testing.T) {
	// 4 MB at 16 MB/s takes 0.25 s.
	if got := DurationSec(4*MB, MBps(16)); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("DurationSec = %v, want 0.25", got)
	}
	if got := DurationSec(MB, 0); !math.IsInf(got, 1) {
		t.Fatalf("DurationSec at zero rate = %v, want +Inf", got)
	}
	if got := DurationSec(MB, -1); !math.IsInf(got, 1) {
		t.Fatalf("DurationSec at negative rate = %v, want +Inf", got)
	}
}

// Property: Mbps round-trips through ToMbps for all finite positive values.
func TestMbpsRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		v = math.Abs(v)
		if math.IsInf(v, 0) || math.IsNaN(v) || v > 1e12 {
			return true
		}
		got := Mbps(v).ToMbps()
		return math.Abs(got-v) <= 1e-9*math.Max(1, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: parsing the String() form of a rate returns the original value
// within formatting precision.
func TestRateStringParseProperty(t *testing.T) {
	f := func(raw uint32) bool {
		r := Mbps(float64(raw%100000)/100 + 0.01)
		parsed, err := ParseRate(r.String())
		if err != nil {
			return false
		}
		return math.Abs(float64(parsed-r)) <= 0.01*math.Abs(float64(r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
