package vdisk

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"dfsqos/internal/units"
	"dfsqos/internal/wire"
)

// checkFill fails t unless fillSynthetic over [off, off+n) equals the
// per-byte definition synthByte. So must the benchmark's scalar
// baseline, or the fill gate compares two different workloads.
func checkFill(t *testing.T, seed uint64, off int64, n int) {
	t.Helper()
	p := make([]byte, n)
	for _, fill := range []func([]byte, uint64, int64){fillSynthetic, fillSyntheticScalar} {
		fill(p, seed, off)
		for i, got := range p {
			if want := synthByte(uint64(off)+uint64(i), seed); got != want {
				t.Fatalf("seed %#x off %d len %d: byte %d = %#x, want %#x", seed, off, n, i, got, want)
			}
		}
	}
}

func TestFillSyntheticMatchesSynthByte(t *testing.T) {
	seed := seedOf("fill")
	// Every short length at every alignment: ragged heads and tails,
	// lengths under one 32-byte unrolled iteration.
	for off := int64(0); off < 16; off++ {
		for n := 0; n <= 80; n++ {
			checkFill(t, seed, off, n)
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		off := rng.Int63n(1 << 30)
		checkFill(t, seedOf(string(rune('a'+i%26))), off, rng.Intn(5000))
	}
}

// TestChecksumGolden pins Disk.Checksum of provisioned files to values
// recorded before the block loop was unrolled: synthetic content and the
// data-plane checksum over it must stay bit-identical.
func TestChecksumGolden(t *testing.T) {
	ctrl, _ := fastController()
	d, err := New(100*units.MB, ctrl, "vm1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		size int64
		sum  uint64
	}{
		{"empty", 0, 0x0000000000000000},
		{"one", 1, 0xbd7529270d62004e},
		{"seven", 7, 0x997d20faba5fe89e},
		{"word", 8, 0xdc68a9ef0d094f55},
		{"f31", 31, 0x0fe46a1cdf0adb12},
		{"f32", 32, 0x54305dc17a2986bd},
		{"f33", 33, 0xf3d4cdc8d3adeb73},
		{"f1000", 1000, 0x236ebd9d3cad6a35},
		{"f64k-1", 65535, 0x6848b6d78e75e6bd},
		{"f64k", 65536, 0x12edf0a0393bb144},
		{"f64k+1", 65537, 0x296e55544cb13206},
		{"f300k+5", 300*1024 + 5, 0x6ef3fb5c1a85189c},
		{"file-17", 16<<20 + 3, 0x284889a9b8da3492},
	} {
		if err := d.Provision(g.name, units.Size(g.size)); err != nil {
			t.Fatal(err)
		}
		if got, err := d.Checksum(g.name); err != nil || got != g.sum {
			t.Fatalf("Checksum(%q, %d bytes) = (%#016x, %v), want %#016x", g.name, g.size, got, err, g.sum)
		}
	}
}

func TestWriteRawAdoptsBufferAndMemo(t *testing.T) {
	d := newDisk(t)
	data := make([]byte, 100_003)
	rand.New(rand.NewSource(3)).Read(data)
	want := bytes.Clone(data)
	sum := wire.ChecksumUpdate(wire.ChecksumBasis, data)
	if err := d.WriteRaw("r", data, sum); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if n, err := d.ReadAtRaw("r", got, 0); n != len(got) || !bytes.Equal(got, want) {
		t.Fatalf("ReadAtRaw = (%d, %v), stored bytes differ from the ingested ones", n, err)
	}
	d.mu.RLock()
	f := d.files["r"]
	d.mu.RUnlock()
	if &f.data[0] != &data[0] {
		t.Fatal("WriteRaw copied the buffer it was handed")
	}
	if memo, err := d.Checksum("r"); err != nil || memo != sum {
		t.Fatalf("seeded memo = (%#x, %v), want %#x", memo, err, sum)
	}
	// The seeded memo must equal what the disk computes afresh.
	d.mu.Lock()
	f.sumOK = false
	d.mu.Unlock()
	if fresh, err := d.Checksum("r"); err != nil || fresh != sum {
		t.Fatalf("fresh hash = (%#x, %v), seeded memo %#x", fresh, err, sum)
	}
	if d.Used() != units.Size(len(data)) {
		t.Fatalf("Used = %v", d.Used())
	}
}

func TestChecksumConcurrentPooledBuffers(t *testing.T) {
	// Checksum passes of synthetic files share pooled fill buffers; run
	// them from several goroutines at once (under -race in make race)
	// and check each against a hash of the bytes the disk serves.
	d := newDisk(t)
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	want := make(map[string]uint64)
	for i, name := range names {
		size := 200*1024 + i*4099
		if err := d.Provision(name, units.Size(size)); err != nil {
			t.Fatal(err)
		}
		p := make([]byte, size)
		d.ReadAtRaw(name, p, 0)
		want[name] = wire.ChecksumUpdate(wire.ChecksumBasis, p)
	}
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if got, err := d.Checksum(name); err != nil || got != want[name] {
				t.Errorf("Checksum(%q) = (%#x, %v), want %#x", name, got, err, want[name])
			}
		}(name)
	}
	wg.Wait()
}

// fillSyntheticScalar is the one-mix-per-iteration block loop
// fillSynthetic unrolled. It exists only as the baseline
// BenchmarkFillSynthetic measures against.
func fillSyntheticScalar(p []byte, seed uint64, off int64) {
	k := uint64(off)
	i := 0
	for i < len(p) && k%8 != 0 {
		p[i] = synthByte(k, seed)
		i++
		k++
	}
	for len(p)-i >= 8 {
		binary.LittleEndian.PutUint64(p[i:i+8], synthWord(k/8, seed))
		i += 8
		k += 8
	}
	for i < len(p) {
		p[i] = synthByte(k, seed)
		i++
		k++
	}
}

// BenchmarkFillSynthetic pins the synthetic-content generator (under
// every streamed chunk of a provisioned file and every synthetic
// checksum pass) against its one-mix-per-iteration form.
// scripts/bench.sh gates unrolled at 1.25x scalar.
func BenchmarkFillSynthetic(b *testing.B) {
	p := make([]byte, 64*1024)
	seed := seedOf("bench")
	for _, c := range []struct {
		name string
		fill func([]byte, uint64, int64)
	}{{"unrolled", fillSynthetic}, {"scalar", fillSyntheticScalar}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(p)))
			for i := 0; i < b.N; i++ {
				c.fill(p, seed, int64(i)*int64(len(p)))
			}
		})
	}
}
