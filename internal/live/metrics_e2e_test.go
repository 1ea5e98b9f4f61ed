package live

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dfsqos/internal/blkio"
	"dfsqos/internal/catalog"
	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/history"
	"dfsqos/internal/ids"
	"dfsqos/internal/mm"
	"dfsqos/internal/monitor"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rm"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/telemetry"
	"dfsqos/internal/transport"
	"dfsqos/internal/units"
	"dfsqos/internal/vdisk"
	"dfsqos/internal/wire"
)

// TestMetricsEndToEnd spins up a real TCP mini-cluster — MM server, two RM
// servers with throttled virtual disks, a DFSC over pooled transport — with
// every layer instrumented onto ONE shared registry, runs accesses through
// the full three-phase flow, and scrapes a monitor /metrics page. The
// exposition must carry the transport call-latency histogram, the pool
// gauge, the RM remaining-bandwidth gauge, the CFP/bid/admission counters,
// and the dfsc negotiation-latency histogram — the acceptance shape of the
// telemetry plane.
func TestMetricsEndToEnd(t *testing.T) {
	reg := telemetry.NewRegistry()
	tcfg := transport.Config{Metrics: transport.NewMetrics(reg)}
	wire.RegisterCodecMetrics(reg)
	defer wire.RegisterCodecMetrics(nil) // detach the process-wide sink from this test's registry

	cfg := catalog.DefaultConfig()
	cfg.NumFiles = 4
	cfg.MeanDurationSec = 5
	cfg.MinDurationSec = 1
	cfg.MaxDurationSec = 10
	cat, err := catalog.Generate(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}

	mmSrv, err := NewMMServer(mm.New(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mmSrv.Close()
	mmSrv.SetMetrics(NewServerMetrics(reg, "mm"))

	sched := NewWallScheduler(100)
	defer sched.Stop()
	master := rng.New(13)
	holders := map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1}, 2: {2}}

	var rmSrvs []*RMServer
	var firstNode *rm.RM
	var firstDisk *vdisk.Disk
	for i, capBW := range []units.BytesPerSec{units.Mbps(50), units.Mbps(50)} {
		id := ids.RMID(i + 1)
		ctrl := blkio.NewController()
		disk, err := vdisk.New(units.GB, ctrl, fmt.Sprintf("vm-metrics-%d", id), capBW, capBW)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[ids.FileID]rm.FileMeta)
		for f, hs := range holders {
			for _, h := range hs {
				if h != id {
					continue
				}
				meta := cat.File(f)
				files[f] = rm.FileMeta{Bitrate: meta.Bitrate, Size: meta.Size, DurationSec: meta.DurationSec}
				if err := disk.Provision(FileName(f), meta.Size); err != nil {
					t.Fatal(err)
				}
			}
		}
		mapperCli, err := DialMMConfig(mmSrv.Addr(), tcfg)
		if err != nil {
			t.Fatal(err)
		}
		defer mapperCli.Close()
		node, err := rm.New(rm.Options{
			Info:        ecnp.RMInfo{ID: id, Capacity: capBW, StorageBytes: units.GB},
			Scheduler:   sched,
			Mapper:      mapperCli,
			History:     history.DefaultConfig(),
			Replication: replication.DefaultConfig(replication.Static()),
			Rand:        master.Split(id.String()),
			Files:       files,
			Metrics:     rm.NewMetrics(reg),
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewRMServer(node, disk, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.SetMetrics(NewServerMetrics(reg, "rm"))
		info := node.Info()
		info.Addr = srv.Addr()
		fileIDs := make([]ids.FileID, 0, len(files))
		for f := range files {
			fileIDs = append(fileIDs, f)
		}
		if err := mapperCli.RegisterRM(info, fileIDs); err != nil {
			t.Fatal(err)
		}
		node.SetDirectory(NewDirectoryConfig(mapperCli, tcfg))
		rmSrvs = append(rmSrvs, srv)
		if firstNode == nil {
			firstNode, firstDisk = node, disk
		}
	}

	mmCli, err := DialMMConfig(mmSrv.Addr(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mmCli.Close()
	dir := NewDirectoryConfig(mmCli, tcfg)
	defer dir.Close()

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    mmCli,
		Directory: dir,
		Scheduler: sched,
		Catalog:   cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(7),
		Metrics:   dfsc.NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []ids.FileID{0, 1, 2} {
		if out := client.Access(f); !out.OK {
			t.Fatalf("access %v failed: %s", f, out.Reason)
		}
	}

	// Scrape the shared registry through a real monitor endpoint, as a
	// Prometheus server would scrape an rmd.
	mon := httptest.NewServer(monitor.NewRMHandler(firstNode, firstDisk, sched, reg, nil))
	defer mon.Close()
	resp, err := http.Get(mon.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Fatalf("content type %q", got)
	}
	body := string(raw)

	for _, want := range []string{
		// Transport: per-call latency histogram and pool gauge.
		"dfsqos_transport_call_latency_seconds_bucket",
		"dfsqos_transport_call_latency_seconds_count",
		"dfsqos_transport_pool_idle_connections",
		`dfsqos_transport_dials_total{result="ok"}`,
		// Wire servers: request counters by kind.
		`server="mm"`,
		`server="rm"`,
		// Wire codec split: every codec tag's series is exposed
		// whether or not a frame moved on it.
		`dfsqos_wire_frames_total{dir="tx",codec="binary"}`,
		`dfsqos_wire_frames_total{dir="rx",codec="binary"}`,
		`dfsqos_wire_frames_total{dir="tx",codec="binary-tenant"}`,
		`dfsqos_wire_frames_total{dir="rx",codec="binary-tenant"}`,
		// RM core: the paper's remained-bandwidth runtime info plus the
		// negotiation counters.
		"dfsqos_rm_remaining_bandwidth_bytes_per_second",
		"dfsqos_rm_cfps_total",
		"dfsqos_rm_bids_total",
		"dfsqos_rm_admissions_total",
		// DFSC: three-phase negotiation latency histogram.
		"dfsqos_dfsc_negotiation_latency_seconds_bucket",
		`dfsqos_dfsc_requests_total{outcome="admitted"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics exposition", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}

	// The counters must reflect the three admitted accesses: 3 CFP+bid
	// pairs per fan-out are spread over the two RMs, and each open landed.
	if !strings.Contains(body, "dfsqos_rm_admissions_total 3") {
		t.Errorf("admissions != 3:\n%s", grepLines(body, "dfsqos_rm_admissions_total"))
	}
	if !strings.Contains(body, "dfsqos_dfsc_negotiation_latency_seconds_count 3") {
		t.Errorf("negotiation count != 3:\n%s", grepLines(body, "negotiation_latency_seconds_count"))
	}

	// Debug-surface smoke: every daemon monitor handler also answers
	// /traces (valid JSON even without a tracer) and the pprof index.
	for _, path := range []string{"/traces", "/traces?format=text", "/debug/pprof/"} {
		r, err := http.Get(mon.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, r.StatusCode)
		}
	}
}

func grepLines(body, needle string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
