package ec

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGFFieldProperties(t *testing.T) {
	// a * inv(a) == 1 for all nonzero a.
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a*inv(a) = %d for a=%d", got, a)
		}
	}
	// Distributivity on a sample.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gfMul(a, b^c) != gfMul(a, b)^gfMul(a, c) {
			t.Fatalf("distributivity failed for %d,%d,%d", a, b, c)
		}
		if gfMul(a, b) != gfMul(b, a) {
			t.Fatalf("commutativity failed for %d,%d", a, b)
		}
	}
}

// TestMulTableMatchesLogExp: the product table the row kernel reads agrees
// with the log/exp reference gfMul on every pair.
func TestMulTableMatchesLogExp(t *testing.T) {
	for c := 0; c < 256; c++ {
		for s := 0; s < 256; s++ {
			if got, want := mulTable[c][s], gfMul(byte(c), byte(s)); got != want {
				t.Fatalf("mulTable[%d][%d] = %d, gfMul = %d", c, s, got, want)
			}
		}
	}
}

// TestMulRowXor checks the unrolled kernel against a bytewise gfMul loop at
// every length around its eight-byte step, and at one that leaves a tail
// after a page.
func TestMulRowXor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lengths := []int{4097}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, c := range []byte{0, 1, 2, 0x8e, 0xff, byte(rng.Intn(256))} {
			src, dst := make([]byte, n), make([]byte, n)
			rng.Read(src)
			rng.Read(dst)
			want := slices.Clone(dst)
			for i := range want {
				want[i] ^= gfMul(c, src[i])
			}
			mulRowXor(dst, src, c)
			if !bytes.Equal(dst, want) {
				t.Fatalf("mulRowXor(len %d, c=%d) wrong", n, c)
			}
		}
	}
}

func TestMatrixInvertIdentity(t *testing.T) {
	id := identity(5)
	inv, ok := id.invert()
	if !ok {
		t.Fatal("identity not invertible")
	}
	for i := range inv {
		for j := range inv[i] {
			want := byte(0)
			if i == j {
				want = 1
			}
			if inv[i][j] != want {
				t.Fatal("inverse of identity is not identity")
			}
		}
	}
}

func TestMatrixInvertSingular(t *testing.T) {
	m := newMatrix(2, 2) // all zeros
	if _, ok := m.invert(); ok {
		t.Fatal("zero matrix claimed invertible")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 10000)
	rng.Read(payload)
	shards, err := c.Encode(c.SplitData(payload))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.joinData(shards, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
}

// TestReconstructAllErasurePatterns: every single and double erasure of a
// 4+2 stripe is rebuilt, and Reconstruct writes only the nil shards.
// Recovery and the EC scrub hand it shards that share their bytes with
// stored objects (DESIGN.md §9), so here the present shards share orig's
// arrays, which are checksummed before and after.
func TestReconstructAllErasurePatterns(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, 4099) // odd size exercises padding
	rng.Read(payload)
	orig, err := c.Encode(c.SplitData(payload))
	if err != nil {
		t.Fatal(err)
	}
	n := c.K + c.M
	sums := make([]uint32, n)
	for s := range orig {
		sums[s] = crc32.ChecksumIEEE(orig[s])
	}
	// Erase every shard and every pair (m=2 tolerates any 2 erasures).
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			shards := slices.Clone(orig)
			shards[i], shards[j] = nil, nil
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("reconstruct erasing %d,%d: %v", i, j, err)
			}
			for s := range shards {
				if crc32.ChecksumIEEE(orig[s]) != sums[s] {
					t.Fatalf("erasing %d,%d: present shard %d was written", i, j, s)
				}
				if !bytes.Equal(shards[s], orig[s]) {
					t.Fatalf("shard %d wrong after erasing %d,%d", s, i, j)
				}
			}
		}
	}
}

// FuzzECReconstruct: any payload encoded with k <= 4 data and m <= 2 parity
// shards decodes back after losing any m of them.
func FuzzECReconstruct(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), []byte("the paper's EC 2+1 configuration"))
	f.Add(uint8(4), uint8(2), uint8(1), uint8(4), bytes.Repeat([]byte{0xa5, 0}, 4097))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kb, mb, e1, e2 uint8, payload []byte) {
		k, m := int(kb)%4+1, int(mb)%3
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		shards, err := c.Encode(c.SplitData(payload))
		if err != nil {
			t.Fatal(err)
		}
		// Erase up to m shards, the two fuzzed indices as far as m allows.
		for _, e := range []uint8{e1, e2}[:m] {
			shards[int(e)%(k+m)] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		if got, err := c.joinData(shards, len(payload)); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("k=%d m=%d: payload of %d bytes lost (%v)", k, m, len(payload), err)
		}
	})
}

func TestReconstructTooFew(t *testing.T) {
	c, _ := New(2, 1)
	shards := make([][]byte, 3)
	shards[0] = []byte{1, 2}
	if err := c.Reconstruct(shards); err != ErrTooFew {
		t.Fatalf("err = %v, want ErrTooFew", err)
	}
}

func TestVerify(t *testing.T) {
	c, _ := New(2, 1)
	shards, err := c.Encode(c.SplitData([]byte("hello world, erasure coding")))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("verify = %v, %v", ok, err)
	}
	shards[2][0] ^= 0xff
	ok, err = c.Verify(shards)
	if err != nil || ok {
		t.Fatal("verify passed on corrupted parity")
	}
}

func TestPaperConfig21(t *testing.T) {
	// The paper's EC pool is k=2, m=1 (§6.4.1).
	c, err := New(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("the paper's EC 2+1 configuration")
	shards, err := c.Encode(c.SplitData(payload))
	if err != nil {
		t.Fatal(err)
	}
	// Lose any single shard.
	for i := 0; i < 3; i++ {
		work := make([][]byte, 3)
		for s := range work {
			if s != i {
				work[s] = append([]byte(nil), shards[s]...)
			}
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("reconstruct shard %d: %v", i, err)
		}
		got, err := c.joinData(work, len(payload))
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("data lost when shard %d erased", i)
		}
	}
}

func TestInvalidConfigs(t *testing.T) {
	for _, kv := range [][2]int{{0, 1}, {-1, 2}, {1, -1}, {200, 100}} {
		if _, err := New(kv[0], kv[1]); err == nil {
			t.Fatalf("New(%d,%d) accepted", kv[0], kv[1])
		}
	}
}

func TestEncodeShardMismatch(t *testing.T) {
	c, _ := New(2, 1)
	if _, err := c.Encode([][]byte{{1}, {2, 3}}); err != ErrShardSize {
		t.Fatalf("err = %v, want ErrShardSize", err)
	}
	if _, err := c.Encode([][]byte{{1}}); err != ErrShardCount {
		t.Fatalf("err = %v, want ErrShardCount", err)
	}
}

func TestQuickRoundTripAnyErasure(t *testing.T) {
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(payload []byte, e1, e2 uint8) bool {
		if len(payload) == 0 {
			payload = []byte{0}
		}
		shards, err := c.Encode(c.SplitData(payload))
		if err != nil {
			return false
		}
		i, j := int(e1)%5, int(e2)%5
		work := make([][]byte, 5)
		for s := range work {
			if s != i && s != j {
				work[s] = append([]byte(nil), shards[s]...)
			}
		}
		if err := c.Reconstruct(work); err != nil {
			return false
		}
		got, err := c.joinData(work, len(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShardSize(t *testing.T) {
	c, _ := New(4, 2)
	if c.ShardSize(0) != 0 || c.ShardSize(1) != 1 || c.ShardSize(4) != 1 || c.ShardSize(5) != 2 {
		t.Fatal("ShardSize wrong")
	}
}

func BenchmarkEncode4x2_32KB(b *testing.B) {
	c, _ := New(4, 2)
	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	data := c.SplitData(payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct4x2_32KB(b *testing.B) {
	c, _ := New(4, 2)
	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	shards, _ := c.Encode(c.SplitData(payload))
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([][]byte, len(shards))
		for s := 2; s < len(shards); s++ {
			work[s] = shards[s]
		}
		if err := c.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncode2x1_32KB encodes one 32 KiB chunk in the paper's EC 2+1
// configuration (§6.4.1), the work an erasure-pool put costs the host.
func BenchmarkEncode2x1_32KB(b *testing.B) {
	c, _ := New(2, 1)
	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	data := c.SplitData(payload)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	var shards [][]byte
	for i := 0; i < b.N; i++ {
		var err error
		if shards, err = c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	shards[0] = nil
	if err := c.Reconstruct(shards); err != nil {
		b.Fatal(err)
	}
	if got, err := c.joinData(shards, len(payload)); err != nil || !bytes.Equal(got, payload) {
		b.Fatalf("encoded chunk does not decode back: %v", err)
	}
}

// BenchmarkReconstruct2x1_32KB rebuilds the first data shard of one 32 KiB
// chunk in EC 2+1 from the second and the parity: a degraded read's decode.
func BenchmarkReconstruct2x1_32KB(b *testing.B) {
	c, _ := New(2, 1)
	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	shards, _ := c.Encode(c.SplitData(payload))
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	work := make([][]byte, len(shards))
	for i := 0; i < b.N; i++ {
		work[0], work[1], work[2] = nil, shards[1], shards[2]
		if err := c.Reconstruct(work); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !bytes.Equal(work[0], shards[0]) {
		b.Fatalf("reconstructed shard 0 (%d bytes) differs from the encoded one", len(work[0]))
	}
}

// joinData reassembles the original payload of length n from data shards.
func (c *Codec) joinData(shards [][]byte, n int) ([]byte, error) {
	if len(shards) < c.K {
		return nil, ErrShardCount
	}
	out := make([]byte, 0, n)
	for i := 0; i < c.K && len(out) < n; i++ {
		if shards[i] == nil {
			return nil, ErrTooFew
		}
		remain := n - len(out)
		if remain > len(shards[i]) {
			remain = len(shards[i])
		}
		out = append(out, shards[i][:remain]...)
	}
	return out, nil
}
