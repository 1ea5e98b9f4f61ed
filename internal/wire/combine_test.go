package wire

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// checkCombine fails t unless combining the checksums of data[:cut] and
// data[cut:] equals folding data whole.
func checkCombine(t *testing.T, data []byte, cut int) {
	t.Helper()
	a := ChecksumUpdate(ChecksumBasis, data[:cut])
	b := ChecksumUpdate(ChecksumBasis, data[cut:])
	whole := ChecksumUpdate(ChecksumBasis, data)
	if got := ChecksumCombine(a, b, int64(len(data)-cut)); got != whole {
		t.Fatalf("len %d cut %d: combine %#x != fold %#x", len(data), cut, got, whole)
	}
}

func TestChecksumCombineMatchesFold(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 500; i++ {
		data := make([]byte, rng.Intn(5000))
		rng.Read(data)
		cut := rng.Intn(len(data) + 1)
		if i%5 == 0 {
			cut = len(data) // zero-length second part
		}
		checkCombine(t, data, cut)
	}
	// Every cut of a short buffer, both empty parts included.
	data := []byte("the quick brown fox jumps over the lazy dog")
	for cut := 0; cut <= len(data); cut++ {
		checkCombine(t, data, cut)
	}
}

// gf2Times returns mat·vec over GF(2), mat given as its 32 columns.
func gf2Times(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i, vec = i+1, vec>>1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
	}
	return sum
}

// gf2Square returns mat·mat.
func gf2Square(mat *[32]uint32) [32]uint32 {
	var sq [32]uint32
	for i := range sq {
		sq[i] = gf2Times(mat, mat[i])
	}
	return sq
}

// matrixShift advances a CRC register over the reflected polynomial poly
// by n zero bytes: the operator matrix for one zero bit, squared up to a
// byte, then applied for each set bit of n while squaring on. It is the
// matrix method of zlib's original crc32_combine — an implementation
// independent of ChecksumCombine's polynomial table.
func matrixShift(crc, poly uint32, n uint64) uint32 {
	var op [32]uint32 // one zero bit: the register shifts, reducing by poly
	op[0] = poly
	for i := 1; i < 32; i++ {
		op[i] = 1 << (i - 1)
	}
	for i := 0; i < 3; i++ {
		op = gf2Square(&op) // 2, 4, 8 zero bits
	}
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			crc = gf2Times(&op, crc)
		}
		op = gf2Square(&op)
	}
	return crc
}

// matrixCombine is ChecksumCombine computed by matrixShift.
func matrixCombine(a, b uint64, n uint64) uint64 {
	return uint64(matrixShift(uint32(a>>32), crc32.Castagnoli, n)^uint32(b>>32))<<32 |
		uint64(matrixShift(uint32(a), crc32.IEEE, n)^uint32(b))
}

func TestChecksumCombineMatchesMatrixReference(t *testing.T) {
	// Lengths whose bits reach past a 32-entry x^(2^k) table: a table
	// that wraps on the period of x^(2^k) gets CRC-32C wrong here.
	rng := rand.New(rand.NewSource(29))
	lengths := []int64{0, 1, 7, 4096, 1 << 20, 1<<29 + 3, 1<<32 + 5, 1<<40 + 11, 1<<62 + 1, 1<<63 - 1}
	for _, n := range lengths {
		for i := 0; i < 4; i++ {
			a, b := rng.Uint64(), rng.Uint64()
			if got, want := ChecksumCombine(a, b, n), matrixCombine(a, b, uint64(n)); got != want {
				t.Fatalf("n %d: combine %#x != matrix reference %#x", n, got, want)
			}
		}
	}
}

func TestChecksumCombineLongZeroRun(t *testing.T) {
	// Ground truth at n = 2^29+3 without any shift arithmetic: fold the
	// zero bytes themselves and compare.
	const n = 1<<29 + 3
	zeros := make([]byte, 1<<20)
	a := ChecksumUpdate(ChecksumBasis, []byte("prefix"))
	folded, b := a, ChecksumBasis
	for left := int64(n); left > 0; {
		step := int64(len(zeros))
		if left < step {
			step = left
		}
		folded = ChecksumUpdate(folded, zeros[:step])
		b = ChecksumUpdate(b, zeros[:step])
		left -= step
	}
	if got := ChecksumCombine(a, b, n); got != folded {
		t.Fatalf("combine over %d zero bytes %#x != fold %#x", n, got, folded)
	}
}

func TestChecksumCombineRejectsNegativeLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative length accepted")
		}
	}()
	ChecksumCombine(1, 2, -1)
}

// FuzzChecksumCombine checks that combining the checksums of the two
// halves of data, split at cut, equals folding data whole.
func FuzzChecksumCombine(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte("abcdefgh"), uint16(3))
	f.Add([]byte("abcdefgh"), uint16(8))
	f.Add(make([]byte, 300), uint16(17))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		checkCombine(t, data, int(cut)%(len(data)+1))
	})
}

// BenchmarkChecksumCombine measures folding one 1 MiB stripe segment's
// checksum into a running whole-file checksum: the committer's cost per
// segment, independent of the segment's bytes.
func BenchmarkChecksumCombine(b *testing.B) {
	sum := ChecksumUpdate(ChecksumBasis, []byte("running"))
	seg := ChecksumUpdate(ChecksumBasis, chunkData())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum = ChecksumCombine(sum, seg, 1<<20)
	}
	benchSink = sum
}
