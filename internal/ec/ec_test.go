package ec

import (
	"bytes"
	"math/rand"
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
	// Erase every pair of shards (m=2 tolerates any 2 erasures).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			shards := make([][]byte, n)
			for s := range shards {
				if s == i || s == j {
					continue
				}
				shards[s] = append([]byte(nil), orig[s]...)
			}
			if err := c.Reconstruct(shards); err != nil {
				t.Fatalf("reconstruct erasing %d,%d: %v", i, j, err)
			}
			for s := range shards {
				if !bytes.Equal(shards[s], orig[s]) {
					t.Fatalf("shard %d wrong after erasing %d,%d", s, i, j)
				}
			}
		}
	}
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
