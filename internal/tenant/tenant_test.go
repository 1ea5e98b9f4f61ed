package tenant

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/units"
)

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	if err := l.ReserveBandwidth(1, 100); err != nil {
		t.Fatalf("nil ledger reserve: %v", err)
	}
	l.ReleaseBandwidth(1, 100)
	if err := l.ChargeBytes(1, 100); err != nil {
		t.Fatalf("nil ledger charge: %v", err)
	}
	l.ReleaseBytes(1, 100)
	if got := l.Share(1, 100); got != 0 {
		t.Fatalf("nil ledger share = %v", got)
	}
	if _, capped := l.RemainingBandwidth(1); capped {
		t.Fatal("nil ledger reports a cap")
	}
	if l.Snapshot() != nil {
		t.Fatal("nil ledger snapshot not nil")
	}
	l.Set(1, Quota{})
	l.SetMetrics(nil)
}

func TestUntenantedAlwaysAdmitted(t *testing.T) {
	l := NewLedger()
	// Tenant 0 is the untenanted sentinel: quota machinery ignores it.
	if err := l.ReserveBandwidth(ids.NoneTenant, 1e12); err != nil {
		t.Fatalf("untenanted reserve refused: %v", err)
	}
	if err := l.ChargeBytes(ids.NoneTenant, 1<<50); err != nil {
		t.Fatalf("untenanted charge refused: %v", err)
	}
	if len(l.Snapshot()) != 0 {
		t.Fatal("untenanted traffic grew a ledger row")
	}
}

func TestUnregisteredTenantIsUnlimited(t *testing.T) {
	l := NewLedger()
	if err := l.ReserveBandwidth(7, 1e12); err != nil {
		t.Fatalf("unregistered tenant refused: %v", err)
	}
	if q := l.Quota(7); q != Unlimited {
		t.Fatalf("unregistered quota = %+v, want Unlimited", q)
	}
}

func TestZeroQuotaTenantDeniedEverything(t *testing.T) {
	l := NewLedger()
	l.Set(3, Quota{Bandwidth: 0, Bytes: 0})
	err := l.ReserveBandwidth(3, 1)
	var oq *OverQuotaError
	if !errors.As(err, &oq) || oq.Dim != "bandwidth" || oq.Tenant != 3 {
		t.Fatalf("zero-bandwidth reserve: %v", err)
	}
	err = l.ChargeBytes(3, 1)
	if !errors.As(err, &oq) || oq.Dim != "bytes" {
		t.Fatalf("zero-bytes charge: %v", err)
	}
	// A zero-rate reservation still fits a zero quota: 0+0 <= 0.
	if err := l.ReserveBandwidth(3, 0); err != nil {
		t.Fatalf("zero-rate reserve against zero quota: %v", err)
	}
}

func TestQuotaExactlyMet(t *testing.T) {
	l := NewLedger()
	l.Set(1, Quota{Bandwidth: 100, Bytes: 1000})
	// Exact fit admits.
	if err := l.ReserveBandwidth(1, 100); err != nil {
		t.Fatalf("exact-fit reserve refused: %v", err)
	}
	// One more unit over the now-exhausted quota refuses with the full
	// arithmetic in the typed error.
	err := l.ReserveBandwidth(1, 1)
	var oq *OverQuotaError
	if !errors.As(err, &oq) {
		t.Fatalf("over-quota reserve: %v", err)
	}
	if oq.Requested != 1 || oq.Used != 100 || oq.Limit != 100 {
		t.Fatalf("error arithmetic = %+v", oq)
	}
	if oq.Error() == "" {
		t.Fatal("empty error rendering")
	}
	if err := l.ChargeBytes(1, 1000); err != nil {
		t.Fatalf("exact-fit charge refused: %v", err)
	}
	if err := l.ChargeBytes(1, 1); err == nil {
		t.Fatal("over-quota charge admitted")
	}
	// Release frees the unit again.
	l.ReleaseBandwidth(1, 100)
	if err := l.ReserveBandwidth(1, 100); err != nil {
		t.Fatalf("reserve after release refused: %v", err)
	}
	l.ReleaseBytes(1, 1000)
	if err := l.ChargeBytes(1, 1000); err != nil {
		t.Fatalf("charge after release refused: %v", err)
	}
}

// TestConcurrentReserveLastUnit races many admissions at a quota with
// exactly one remaining unit: the check-then-commit must serialize so
// exactly one wins.
func TestConcurrentReserveLastUnit(t *testing.T) {
	const racers = 64
	l := NewLedger()
	l.Set(1, Quota{Bandwidth: 1, Bytes: NoLimit})
	var won atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if l.ReserveBandwidth(1, 1) == nil {
				won.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := won.Load(); got != 1 {
		t.Fatalf("%d racers won the last quota unit, want exactly 1", got)
	}
}

func TestReleaseClampsAtZero(t *testing.T) {
	l := NewLedger()
	l.Set(1, Quota{Bandwidth: 10, Bytes: 10})
	l.ReleaseBandwidth(1, 100) // double release must not mint budget
	l.ReleaseBytes(1, 100)
	snap := l.Snapshot()
	if len(snap) != 1 || snap[0].Bandwidth != 0 || snap[0].Bytes != 0 || snap[0].Streams != 0 {
		t.Fatalf("snapshot after over-release: %+v", snap)
	}
}

func TestShareIsWeightNormalised(t *testing.T) {
	l := NewLedger()
	l.Set(1, Quota{Bandwidth: NoLimit, Bytes: NoLimit, Weight: 2})
	l.Set(2, Unlimited) // weight 1
	if err := l.ReserveBandwidth(1, 50); err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveBandwidth(2, 50); err != nil {
		t.Fatal(err)
	}
	// Both hold 50 of 100, but tenant 1's double weight halves its share.
	if got := l.Share(1, 100); got != 0.25 {
		t.Fatalf("weighted share = %v, want 0.25", got)
	}
	if got := l.Share(2, 100); got != 0.5 {
		t.Fatalf("unit-weight share = %v, want 0.5", got)
	}
	if got := l.Share(3, 100); got != 0 {
		t.Fatalf("unknown-tenant share = %v, want 0", got)
	}
	if got := l.Share(1, 0); got != 0 {
		t.Fatalf("zero-capacity share = %v, want 0", got)
	}
}

func TestRemainingBandwidth(t *testing.T) {
	l := NewLedger()
	l.Set(1, Quota{Bandwidth: 100, Bytes: NoLimit})
	if rem, capped := l.RemainingBandwidth(1); !capped || rem != 100 {
		t.Fatalf("fresh remaining = %v,%v", rem, capped)
	}
	if err := l.ReserveBandwidth(1, 60); err != nil {
		t.Fatal(err)
	}
	if rem, capped := l.RemainingBandwidth(1); !capped || rem != 40 {
		t.Fatalf("partial remaining = %v,%v", rem, capped)
	}
	if _, capped := l.RemainingBandwidth(2); capped {
		t.Fatal("uncapped tenant reports a cap")
	}
}

func TestTighteningBelowUsageKeepsStreams(t *testing.T) {
	l := NewLedger()
	l.Set(1, Quota{Bandwidth: 100, Bytes: NoLimit})
	if err := l.ReserveBandwidth(1, 80); err != nil {
		t.Fatal(err)
	}
	l.Set(1, Quota{Bandwidth: 50, Bytes: NoLimit})
	// Existing usage survives; new admissions refuse.
	if err := l.ReserveBandwidth(1, 1); err == nil {
		t.Fatal("admission above tightened quota")
	}
	snap := l.Snapshot()
	if snap[0].Bandwidth != 80 || snap[0].Streams != 1 {
		t.Fatalf("tightening revoked usage: %+v", snap[0])
	}
	if rem, capped := l.RemainingBandwidth(1); !capped || rem != 0 {
		t.Fatalf("remaining under tightened quota = %v,%v", rem, capped)
	}
}

func TestMetricsFlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	l := NewLedger()
	l.SetMetrics(m)
	l.Set(1, Quota{Bandwidth: 100, Bytes: 100})
	if err := l.ReserveBandwidth(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveBandwidth(1, 1); err == nil {
		t.Fatal("expected over-quota")
	}
	if err := l.ChargeBytes(1, 60); err != nil {
		t.Fatal(err)
	}
	l.ReleaseBytes(1, 10)
	l.ReleaseBandwidth(1, 100)
	m.Clamped(1)
	label := ids.TenantID(1).String()
	if got := m.Admissions.With(label).Value(); got != 1 {
		t.Fatalf("admissions = %d", got)
	}
	if got := m.Rejections.With(label).Value(); got != 1 {
		t.Fatalf("rejections = %d", got)
	}
	if got := m.BidClamps.With(label).Value(); got != 1 {
		t.Fatalf("clamps = %d", got)
	}
	if got := m.ChargedBytes.With(label).Value(); got != 60 {
		t.Fatalf("charged bytes = %d", got)
	}
	if got := m.StoredBytes.With(label).Value(); got != 50 {
		t.Fatalf("stored bytes gauge = %v", got)
	}
	if got := m.ReservedBandwidth.With(label).Value(); got != 0 {
		t.Fatalf("reserved bandwidth gauge = %v", got)
	}
	// Nil metrics receivers are safe no-ops.
	var nilm *Metrics
	nilm.Clamped(1)
	nilm.admitted(1, 0, 0)
	nilm.released(1, 0, 0)
	nilm.rejected(1)
	nilm.bytesCharged(1, 1, 1)
	nilm.bytesReleased(1, 0)
}

func TestParseQuotas(t *testing.T) {
	got, err := ParseQuotas(" 1=4Mbps:1GB:2, 2=2Mbps, 3=::0.5, 4=0:0 ")
	if err != nil {
		t.Fatal(err)
	}
	want := map[ids.TenantID]Quota{
		1: {Bandwidth: units.Mbps(4), Bytes: 1e9, Weight: 2},
		2: {Bandwidth: units.Mbps(2), Bytes: NoLimit, Weight: DefaultWeight},
		3: {Bandwidth: NoLimit, Bytes: NoLimit, Weight: 0.5},
		4: {Bandwidth: 0, Bytes: 0, Weight: DefaultWeight},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(got), len(want))
	}
	for id, q := range want {
		if got[id] != q {
			t.Errorf("tenant %v = %+v, want %+v", id, got[id], q)
		}
	}

	if got, err := ParseQuotas("  "); err != nil || got != nil {
		t.Fatalf("empty spec = %v, %v", got, err)
	}
	for _, bad := range []string{
		"1",               // no '='
		"x=1Mbps",         // non-numeric tenant
		"0=1Mbps",         // tenant 0 is the sentinel
		"-2=1Mbps",        // negative tenant
		"1=zz",            // bad rate
		"1=1Mbps:zz",      // bad size
		"1=1Mbps:1GB:x",   // bad weight
		"1=1Mbps:1GB:0",   // weight must be positive
		"1=1Mbps:1GB:NaN", // weight must be a number
		"1=1Mbps:1GB:Inf", // and finite
		"1=NaN",           // rates must be finite
		"1=1Mbps,1=2Mbps", // duplicate
	} {
		if _, err := ParseQuotas(bad); err == nil {
			t.Errorf("ParseQuotas(%q) accepted", bad)
		}
	}
}

func TestQuotaWeightDefault(t *testing.T) {
	if (Quota{}).weight() != DefaultWeight {
		t.Fatal("zero quota weight not defaulted")
	}
	if (Quota{Weight: 3}).weight() != 3 {
		t.Fatal("explicit weight not honoured")
	}
}
