package live

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"dfsqos/internal/dfsc"
	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/qos"
	"dfsqos/internal/replication"
	"dfsqos/internal/rng"
	"dfsqos/internal/selection"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// TestLiveMixedCodecStreams runs the full negotiation + data-plane flow
// over real TCP and asserts the codec split end to end: in the default
// build the control plane (lookups, CFP, Bid, Open, Close) and the data
// chunks all travel as binary frames and no gob frame moves, and the
// transferred bytes verify. Then a client whose connections are pinned to
// gob (the legacy-peer interop mode) negotiates and streams against the
// same fast-path servers: it must still be admitted and verify, with
// gob frames moving in both directions.
func TestLiveMixedCodecStreams(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(80), units.Mbps(80)},
		map[ids.FileID][]ids.RMID{0: {1, 2}, 1: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	client, err := dfsc.New(dfsc.Options{
		ID:        1,
		Mapper:    lc.mmCli,
		Directory: lc.dir,
		Scheduler: lc.sched,
		Catalog:   lc.cat,
		Policy:    selection.RemOnly,
		Scenario:  qos.Firm,
		Rand:      rng.New(5),
	})
	if err != nil {
		t.Fatal(err)
	}

	stream := func(tag string) {
		t.Helper()
		out := client.Access(0)
		if !out.OK {
			t.Fatalf("%s: access failed: %s", tag, out.Reason)
		}
		served, ok := lc.dir.RMClient(out.RM)
		if !ok {
			t.Fatalf("%s: winner not reachable", tag)
		}
		var buf bytes.Buffer
		n, err := served.ReadFile(0, &buf) // verifies size + checksum internally
		if err != nil {
			t.Fatalf("%s: stream: %v", tag, err)
		}
		if n != int64(lc.cat.File(0).Size) {
			t.Fatalf("%s: streamed %d bytes, want %d", tag, n, lc.cat.File(0).Size)
		}
		served.Close(out.Request)
	}

	// Round 1: default build — every frame of the read is binary.
	txB0, txG0, rxB0, rxG0 := wire.CodecStats()
	stream("fastpath")
	txB1, txG1, rxB1, rxG1 := wire.CodecStats()
	if rxB1 <= rxB0 || txB1 <= txB0 {
		t.Errorf("fast path moved no binary frames: tx %d→%d rx %d→%d", txB0, txB1, rxB0, rxB1)
	}
	if txG1 != txG0 || rxG1 != rxG0 {
		t.Errorf("default control plane moved gob frames: tx %d→%d rx %d→%d", txG0, txG1, rxG0, rxG1)
	}

	// Round 2: pin every NEW connection to gob, the shape of a legacy peer
	// on the client side. A fresh mapper and RM client must negotiate
	// (lookup, CFP/Bid, Open/OpenResult, Close) and stream against the
	// fast-path servers — no fast-path dependence anywhere — and the
	// servers must answer the gob requests in kind.
	prev := wire.SetDefaultFastPath(false)
	defer wire.SetDefaultFastPath(prev)
	gobMM, err := DialMM(lc.mmSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer gobMM.Close()
	served, ok := lc.dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 not reachable")
	}
	gobCli, err := DialRM(served.Info()) // fresh pool, created under the gob default
	if err != nil {
		t.Fatal(err)
	}
	defer gobCli.Disconnect()
	_, txG2, _, rxG2 := wire.CodecStats()
	if holders := gobMM.Lookup(1); !slices.Equal(holders, []ids.RMID{1}) {
		t.Fatalf("gob-pinned lookup = %v, want [1]", holders)
	}
	f := lc.cat.File(1)
	cfp := ecnp.CFP{Request: 9001, File: 1, Bitrate: f.Bitrate, DurationSec: f.DurationSec}
	if bid := gobCli.HandleCFP(cfp); bid.RM != 1 || !bid.HasReplica {
		t.Fatalf("gob-pinned bid = %+v", bid)
	}
	res := gobCli.Open(ecnp.OpenRequest{Request: 9001, File: 1, Bitrate: f.Bitrate, DurationSec: f.DurationSec})
	if !res.OK {
		t.Fatalf("gob-pinned open refused: %s", res.Reason)
	}
	var buf bytes.Buffer
	n, err := gobCli.ReadFile(1, &buf)
	if err != nil {
		t.Fatalf("gob-pinned stream: %v", err)
	}
	if n != int64(f.Size) {
		t.Fatalf("gob-pinned stream: %d bytes, want %d", n, f.Size)
	}
	gobCli.Close(9001)
	_, txG3, _, rxG3 := wire.CodecStats()
	if txG3 <= txG2 || rxG3 <= rxG2 {
		t.Errorf("gob-pinned client moved no gob frames: tx %d→%d rx %d→%d", txG2, txG3, rxG2, rxG3)
	}
}

// TestLiveBinaryRejectionSurfacesTypedError pins the failure mode of a
// version skew: a server whose connections refuse binary frames answers a
// fast-path chunk with a typed *CodecError-derived stream failure, not a
// hang or a misparse. Exercised at the wire level against a live RM
// server connection.
func TestLiveBinaryRejectionSurfacesTypedError(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(80)},
		map[ids.FileID][]ids.RMID{0: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()

	served, ok := lc.dir.RMClient(1)
	if !ok {
		t.Fatal("RM 1 not reachable")
	}
	// A client that refuses incoming binary frames sees the server's
	// fast-path chunks as a typed codec error and the stream fails loudly.
	cli, err := DialRM(served.Info())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Disconnect()
	err = cli.stream(func(wc *wire.Conn) error {
		wc.SetAcceptBinary(false)
		if werr := wc.Write(wire.KindReadFile, wire.ReadFile{File: 0, ChunkSize: 64 * 1024}); werr != nil {
			return werr
		}
		_, rerr := wc.Read()
		return rerr
	})
	if err == nil {
		t.Fatal("binary-refusing reader accepted a fast-path stream")
	}
	var ce *wire.CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("stream failure not a CodecError: %v", err)
	}
	if ce.Codec != wire.CodecBinary {
		t.Fatalf("rejected codec %v, want binary", ce.Codec)
	}
}
