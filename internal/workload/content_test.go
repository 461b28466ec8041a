package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// fillRandom must produce exactly the bytes rand.Read does from the same
// seed, tail included: every generator's content, and so every golden, rests
// on them.
func TestFillRandomMatchesRandRead(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -1, -7919, 1 << 40} {
		for _, n := range []int{0, 1, 6, 7, 8, 13, 14, 100, 8 << 10, 64 << 10, 64<<10 + 1} {
			want := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(want)
			got := make([]byte, n)
			fillRandom(got, seed)
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d, %d bytes: fillRandom differs from rand.Read", seed, n)
			}
		}
	}
}

func BenchmarkFillRandom(b *testing.B) {
	for _, n := range []int{8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				fillRandom(buf, int64(i))
			}
		})
	}
}
