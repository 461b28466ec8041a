package ec

import (
	"errors"
	"fmt"
)

// Errors returned by the codec.
var (
	ErrShardCount = errors.New("ec: wrong number of shards")
	ErrShardSize  = errors.New("ec: shards have mismatched sizes")
	ErrTooFew     = errors.New("ec: too few shards to reconstruct")
)

// Codec is a systematic Reed–Solomon code with K data shards and M parity
// shards. Shards 0..K-1 carry data verbatim; shards K..K+M-1 carry parity.
type Codec struct {
	K, M   int
	parity matrix // M×K Cauchy rows
}

// New returns a codec for k data and m parity shards. k >= 1, m >= 0, and
// k+m <= 256.
func New(k, m int) (*Codec, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("ec: invalid configuration k=%d m=%d", k, m)
	}
	return &Codec{K: k, M: m, parity: cauchy(m, k)}, nil
}

// ShardSize returns the per-shard size for a payload of n bytes (payload is
// padded up to a multiple of K).
func (c *Codec) ShardSize(n int) int { return (n + c.K - 1) / c.K }

// SplitData slices payload into K equal data shards, padding the last with
// zeros. The returned shards copy the input.
func (c *Codec) SplitData(payload []byte) [][]byte {
	size := c.ShardSize(len(payload))
	shards := make([][]byte, c.K)
	for i := 0; i < c.K; i++ {
		shards[i] = make([]byte, size)
		start := i * size
		if start < len(payload) {
			copy(shards[i], payload[start:])
		}
	}
	return shards
}

// Encode computes parity shards from the K data shards. Input must contain
// exactly K equal-size shards; it returns K+M shards (data aliased, parity
// fresh).
func (c *Codec) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.K {
		return nil, ErrShardCount
	}
	size := len(data[0])
	for _, s := range data {
		if len(s) != size {
			return nil, ErrShardSize
		}
	}
	out := make([][]byte, c.K+c.M)
	copy(out, data)
	par := make([][]byte, c.M)
	for i := range par {
		par[i] = make([]byte, size)
	}
	c.parity.apply(data, par)
	copy(out[c.K:], par)
	return out, nil
}

// Verify checks that parity shards match the data shards.
func (c *Codec) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.K+c.M {
		return false, ErrShardCount
	}
	enc, err := c.Encode(shards[:c.K])
	if err != nil {
		return false, err
	}
	for i := c.K; i < c.K+c.M; i++ {
		a, b := enc[i], shards[i]
		if len(a) != len(b) {
			return false, nil
		}
		for j := range a {
			if a[j] != b[j] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Reconstruct fills in nil shards in place. shards must have length K+M and
// at least K non-nil entries of equal size.
func (c *Codec) Reconstruct(shards [][]byte) error {
	if len(shards) != c.K+c.M {
		return ErrShardCount
	}
	size := -1
	present := 0
	for _, s := range shards {
		if s != nil {
			if size < 0 {
				size = len(s)
			} else if len(s) != size {
				return ErrShardSize
			}
			present++
		}
	}
	if present < c.K {
		return ErrTooFew
	}
	missingData := false
	for i := 0; i < c.K; i++ {
		if shards[i] == nil {
			missingData = true
		}
	}
	if missingData {
		// Select K available rows of the full generator matrix [I; parity].
		sub := newMatrix(c.K, c.K)
		srcs := make([][]byte, c.K)
		row := 0
		for i := 0; i < c.K+c.M && row < c.K; i++ {
			if shards[i] == nil {
				continue
			}
			if i < c.K {
				sub[row][i] = 1
			} else {
				copy(sub[row], c.parity[i-c.K])
			}
			srcs[row] = shards[i]
			row++
		}
		inv, ok := sub.invert()
		if !ok {
			return errors.New("ec: generator submatrix singular")
		}
		// Recover only the missing data shards.
		for i := 0; i < c.K; i++ {
			if shards[i] != nil {
				continue
			}
			rec := make([]byte, size)
			for j := 0; j < c.K; j++ {
				mulRowXor(rec, srcs[j], inv[i][j])
			}
			shards[i] = rec
		}
	}
	// Recompute any missing parity from (now complete) data.
	for i := c.K; i < c.K+c.M; i++ {
		if shards[i] != nil {
			continue
		}
		rec := make([]byte, size)
		for j := 0; j < c.K; j++ {
			mulRowXor(rec, shards[j], c.parity[i-c.K][j])
		}
		shards[i] = rec
	}
	return nil
}
