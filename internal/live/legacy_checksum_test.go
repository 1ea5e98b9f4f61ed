package live

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/replication"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// legacyFNV is the FNV-1a data-plane checksum peers built before the
// CRC-32C‖CRC-32 definition computed, kept here only to impersonate one.
func legacyFNV(data []byte) uint64 {
	sum := uint64(14695981039346656037)
	for _, b := range data {
		sum ^= uint64(b)
		sum *= 1099511628211
	}
	return sum
}

// crcSum is the current definition over a whole buffer.
func crcSum(data []byte) uint64 { return wire.ChecksumUpdate(wire.ChecksumBasis, data) }

// startRawRM serves body to every (possibly ranged) ReadFile the way an
// RM does, chunk by chunk, but closes each stream with a FileEnd whose
// checksum is endSum over the streamed bytes.
func startRawRM(t *testing.T, body []byte, endSum func([]byte) uint64) string {
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
					req, ok := msg.ReadReq()
					msg.Release()
					if !ok {
						return
					}
					end := int64(len(body))
					if req.Length > 0 && req.Offset+req.Length < end {
						end = req.Offset + req.Length
					}
					for off := req.Offset; off < end; off += 4096 {
						if err := wc.WriteChunk(trace.SpanContext{}, off, body[off:min(off+4096, end)]); err != nil {
							return
						}
					}
					if err := wc.Write(wire.KindFileEnd, wire.FileEnd{Size: end, Checksum: endSum(body[req.Offset:end])}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestLegacyChecksumPeerFailsLoudly pins the versioning contract of the
// data-plane checksum: it is not negotiated, so a peer still computing
// FNV-1a delivers correct bytes that are nonetheless refused on both
// read paths, while the same peer speaking the current definition is
// accepted.
func TestLegacyChecksumPeerFailsLoudly(t *testing.T) {
	body := make([]byte, 20000)
	for i := range body {
		body[i] = byte(i*13 + 5)
	}
	for _, peer := range []struct {
		name              string
		sum               func([]byte) uint64
		wantRead, wantRng string // "" means accepted
	}{
		{"current", crcSum, "", ""},
		{"legacy", legacyFNV, "live: checksum mismatch", "live: range checksum mismatch"},
	} {
		t.Run(peer.name, func(t *testing.T) {
			cli, err := DialRM(ecnp.RMInfo{ID: 1, Addr: startRawRM(t, body, peer.sum)})
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Disconnect()

			var got bytes.Buffer
			sum := wire.ChecksumBasis
			n, err := cli.ReadFileAt(context.Background(), 0, 0, 0, &got, &sum)
			checkErr(t, "ReadFileAt", err, peer.wantRead)
			if n != int64(len(body)) || !bytes.Equal(got.Bytes(), body) {
				t.Fatalf("ReadFileAt delivered %d bytes, want the whole %d-byte body", n, len(body))
			}

			got.Reset()
			sum = wire.ChecksumBasis
			n, err = cli.ReadRange(context.Background(), 0, 0, 5000, 9000, &got, &sum)
			checkErr(t, "ReadRange", err, peer.wantRng)
			if n != 9000 || !bytes.Equal(got.Bytes(), body[5000:14000]) {
				t.Fatalf("ReadRange delivered %d bytes, want body[5000:14000]", n)
			}
		})
	}
}

// TestLegacyChecksumUploadRefused sends an upload framed like WriteFile
// but closed with the legacy FNV-1a sum: ingest must refuse it and store
// nothing. The current sum over the same frames is stored.
func TestLegacyChecksumUploadRefused(t *testing.T) {
	lc := startLiveCluster(t, []units.BytesPerSec{units.Mbps(50)}, map[ids.FileID][]ids.RMID{},
		replication.DefaultConfig(replication.Static()), 100)
	defer lc.shutdown()
	srv := lc.rmSrvs[0]
	body := bytes.Repeat([]byte("legacy peer "), 3000)

	upload := func(file ids.FileID, sum uint64) wire.Msg {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wc := wire.NewConn(conn)
		if err := wc.Write(wire.KindWriteFile, wire.WriteFile{File: file, SizeBytes: int64(len(body))}); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(body); off += 8192 {
			if err := wc.WriteChunk(trace.SpanContext{}, int64(off), body[off:min(off+8192, len(body))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := wc.Write(wire.KindFileEnd, wire.FileEnd{Size: int64(len(body)), Checksum: sum}); err != nil {
			t.Fatal(err)
		}
		reply, err := wc.Read()
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}

	const legacyFile, currentFile ids.FileID = 100, 101
	reply := upload(legacyFile, legacyFNV(body))
	if e, ok := reply.Payload.(wire.Error); reply.Kind != wire.KindError || !ok || e.Text != "rm: inbound checksum mismatch" {
		t.Fatalf("legacy upload answered %v %#v, want the inbound checksum mismatch error", reply.Kind, reply.Payload)
	}
	if _, err := srv.disk.Stat(FileName(legacyFile)); err == nil {
		t.Fatal("a legacy-checksummed upload was stored")
	}

	if reply := upload(currentFile, crcSum(body)); reply.Kind != wire.KindAck {
		t.Fatalf("current upload answered %v %#v, want Ack", reply.Kind, reply.Payload)
	}
	if size, err := srv.disk.Stat(FileName(currentFile)); err != nil || int(size) != len(body) {
		t.Fatalf("current upload stored %v (%v), want %d bytes", size, err, len(body))
	}
}

func checkErr(t *testing.T, op string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Fatalf("%s: %v, want accepted", op, err)
	case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
		t.Fatalf("%s: error %v, want %q", op, err, want)
	}
}
