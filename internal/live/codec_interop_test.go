package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

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
// over real TCP and asserts the codec split end to end: the control plane
// (lookups, CFP, Bid, Open, Close) and the data chunks all travel as
// binary frames, no gob frame is counted, and the transferred bytes
// verify.
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

	txB0, _, rxB0, _ := wire.CodecStats()
	out := client.Access(0)
	if !out.OK {
		t.Fatalf("access failed: %s", out.Reason)
	}
	served, ok := lc.dir.RMClient(out.RM)
	if !ok {
		t.Fatal("winner not reachable")
	}
	var buf bytes.Buffer
	n, err := served.ReadFile(0, &buf) // verifies size + checksum internally
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if n != int64(lc.cat.File(0).Size) {
		t.Fatalf("streamed %d bytes, want %d", n, lc.cat.File(0).Size)
	}
	served.Close(out.Request)
	txB1, txG, rxB1, rxG := wire.CodecStats()
	if rxB1 <= rxB0 || txB1 <= txB0 {
		t.Errorf("no binary frames moved: tx %d→%d rx %d→%d", txB0, txB1, rxB0, rxB1)
	}
	if txG != 0 || rxG != 0 {
		t.Errorf("gob frames counted: tx %d rx %d", txG, rxG)
	}
}

// skewFrame is a frame from a peer on another wire version.
type skewFrame struct {
	name string
	tag  byte
	body []byte
	// kind is the Kind the reader's CodecError must name: zero when the
	// tag alone refuses the frame.
	kind wire.Kind
}

// skewFrames returns the frames version skew produces: a whole-file
// ReadFile in the gob envelope older builds framed under tag 0, a frame
// under tag 9 (never assigned), and a kind no build defines under tag 1.
func skewFrames(t *testing.T) []skewFrame {
	t.Helper()
	var envelope bytes.Buffer
	gob.Register(wire.ReadFile{})
	if err := gob.NewEncoder(&envelope).Encode(struct {
		Kind    wire.Kind
		Payload any
	}{wire.KindReadFile, wire.ReadFile{File: 0, ChunkSize: 4096}}); err != nil {
		t.Fatal(err)
	}
	return []skewFrame{
		{"gob tag 0", 0, envelope.Bytes(), 0},
		{"unknown tag 9", 9, binary.BigEndian.AppendUint16(nil, uint16(wire.KindAck)), 0},
		{"unknown kind", 1, binary.BigEndian.AppendUint16(nil, 0xffff), 0xffff},
	}
}

func (f skewFrame) bytes() []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(f.body)))
	return append(append(b, f.tag), f.body...)
}

// checkSkewError fails t unless err is the typed *wire.CodecError f must
// produce: an unknown-tag refusal, or an unknown-kind one naming the kind.
func checkSkewError(t *testing.T, f skewFrame, err error) {
	t.Helper()
	var ce *wire.CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: err = %v, want a *wire.CodecError", f.name, err)
	}
	want := "unknown codec tag"
	if f.kind != 0 {
		want = "unknown kind"
	}
	if ce.Codec != wire.Codec(f.tag) || ce.Kind != f.kind || !strings.Contains(ce.Reason, want) {
		t.Fatalf("%s: %v, want codec %v, kind %v, %q", f.name, ce, wire.Codec(f.tag), f.kind, want)
	}
}

// TestLiveCodecSkewFailsLoudly pins how version skew fails over real TCP,
// in both directions. A real RM server that receives a skewed frame
// refuses it with a typed *wire.CodecError and drops the connection
// without a reply. A real RM client whose server answers with a skewed
// frame gets the same typed error from ReadFileAt. Neither side hangs or
// misparses. (A peer that predates the CRC checksum fails on the
// checksum instead: TestLegacyChecksumPeerFailsLoudly.)
func TestLiveCodecSkewFailsLoudly(t *testing.T) {
	lc := startLiveCluster(t,
		[]units.BytesPerSec{units.Mbps(80)},
		map[ids.FileID][]ids.RMID{0: {1}},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()
	srv := lc.rmSrvs[0]
	refused := make(chan error, 8)
	srv.SetLogger(func(_ string, args ...any) {
		for _, a := range args {
			if err, ok := a.(error); ok {
				refused <- err
			}
		}
	})

	for _, f := range skewFrames(t) {
		t.Run("to server/"+f.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(f.bytes()); err != nil {
				t.Fatal(err)
			}
			if n, err := conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
				t.Fatalf("server answered %d byte(s), err %v: want the connection dropped without a reply", n, err)
			}
			select {
			case err := <-refused:
				checkSkewError(t, f, err)
			case <-time.After(5 * time.Second):
				t.Fatal("server logged no refusal")
			}
		})

		t.Run("to client/"+f.name, func(t *testing.T) {
			cli, err := DialRM(ecnp.RMInfo{ID: 1, Addr: startSkewRM(t, f)})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Disconnect()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			n, err := cli.ReadFileAt(ctx, 0, 0, 0, io.Discard, nil)
			if n != 0 {
				t.Fatalf("client delivered %d bytes from a skewed stream", n)
			}
			checkSkewError(t, f, err)
		})
	}
}

// startSkewRM answers every request with the skewed frame f.
func startSkewRM(t *testing.T, f skewFrame) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				wc := wire.NewConn(conn)
				for {
					msg, err := wc.Read()
					if err != nil {
						return
					}
					msg.Release()
					if _, err := conn.Write(f.bytes()); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}
