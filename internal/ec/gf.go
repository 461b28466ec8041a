// Package ec implements systematic Reed–Solomon erasure coding over
// GF(2^8), the redundancy scheme the paper evaluates alongside replication
// (EC k=2, m=1 in §6.4). Any k of the k+m shards reconstruct the data.
package ec

import "encoding/binary"

// GF(2^8) arithmetic with the AES field polynomial x^8+x^4+x^3+x^2+1 (0x11d).
var (
	gfExp [512]byte
	gfLog [256]int
	// mulTable[c][s] is c*s: 64 KiB built from the log/exp tables, so the
	// row kernel takes one lookup per byte and no branch on zero.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := range mulTable {
		for s := range mulTable[c] {
			mulTable[c][s] = gfMul(byte(c), byte(s))
		}
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[gfLog[a]+gfLog[b]]
}

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ec: divide by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[gfLog[a]-gfLog[b]+255]
}

func gfInv(a byte) byte { return gfDiv(1, a) }

// mulRowXor computes dst ^= c * src for byte slices (dst and src same
// length). Each step XORs eight table lookups into dst as one word.
func mulRowXor(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	t := &mulTable[c]
	src = src[:len(dst)]
	n := len(dst) &^ 7
	for i := 0; i < n; i += 8 {
		d, s := dst[i:i+8:i+8], src[i:i+8:i+8]
		v := uint64(t[s[0]]) | uint64(t[s[1]])<<8 | uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24 |
			uint64(t[s[4]])<<32 | uint64(t[s[5]])<<40 | uint64(t[s[6]])<<48 | uint64(t[s[7]])<<56
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(d)^v)
	}
	for i := n; i < len(dst); i++ {
		dst[i] ^= t[src[i]]
	}
}

// matrix is a dense GF(256) matrix.
type matrix [][]byte

func newMatrix(rows, cols int) matrix {
	m := make(matrix, rows)
	for i := range m {
		m[i] = make([]byte, cols)
	}
	return m
}

// identity returns the n×n identity matrix.
func identity(n int) matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m[i][i] = 1
	}
	return m
}

// cauchy builds an m×k Cauchy matrix with x_i = k+i, y_j = j. All x_i+y_j
// are nonzero and distinct pairs give invertible square submatrices, the
// property that makes any-k reconstruction possible.
func cauchy(m, k int) matrix {
	if m+k > 256 {
		panic("ec: k+m must be <= 256 for GF(256) Cauchy coding")
	}
	out := newMatrix(m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			out[i][j] = gfInv(byte(k+i) ^ byte(j))
		}
	}
	return out
}

// invert returns the inverse of square matrix a via Gauss–Jordan
// elimination, or ok=false if singular.
func (a matrix) invert() (matrix, bool) {
	n := len(a)
	// Augment [a | I].
	work := newMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		copy(work[i], a[i])
		work[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		work[col], work[pivot] = work[pivot], work[col]
		// Normalize pivot row.
		inv := gfInv(work[col][col])
		for j := 0; j < 2*n; j++ {
			work[col][j] = gfMul(work[col][j], inv)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || work[r][col] == 0 {
				continue
			}
			c := work[r][col]
			for j := 0; j < 2*n; j++ {
				work[r][j] ^= gfMul(c, work[col][j])
			}
		}
	}
	out := newMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(out[i], work[i][n:])
	}
	return out, true
}

// apply computes out[r] ^= sum_j a[r][j]*shards[j] over GF(256) rows: into
// zeroed out rows, the product a·shards.
func (a matrix) apply(shards [][]byte, out [][]byte) {
	for r := range a {
		for j, row := range a[r] {
			mulRowXor(out[r], shards[j], row)
		}
	}
}
