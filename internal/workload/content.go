// Package workload generates the paper's evaluation workloads: FIO-style
// micro-benchmarks with controlled dedup ratios (§2.2, §6.2), the SPEC SFS
// 2014 database workload (§6.4.1), VM-image populations (§6.4.3), and a
// synthetic stand-in for the SK Telecom private-cloud dataset (§2.2, §6.3),
// plus drivers that replay them against a block device under the DES.
package workload

import (
	"encoding/binary"
	"math/rand"
)

// fillRandom fills buf with seeded pseudo-random (incompressible) bytes:
// exactly the bytes rand.Read produces from the same seed, the low 7 bytes of
// each Int63 draw, little-endian, without its byte-at-a-time loop.
func fillRandom(buf []byte, seed int64) {
	src := rand.NewSource(seed)
	for len(buf) >= 8 {
		// The eighth byte written is the next draw's first.
		binary.LittleEndian.PutUint64(buf, uint64(src.Int63()))
		buf = buf[7:]
	}
	if len(buf) > 0 {
		v := src.Int63()
		for i := range buf {
			buf[i] = byte(v)
			v >>= 8
		}
	}
}

// fillCompressible fills buf with text-like content that DEFLATE compresses
// to roughly half: a pattern of repeated words keyed by the seed.
func fillCompressible(buf []byte, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"config", "kernel", "libexec", "update", "package", "service", "systemd", "default"}
	pos := 0
	for pos < len(buf) {
		if rng.Intn(3) == 0 {
			var raw [8]byte
			binary.LittleEndian.PutUint64(raw[:], rng.Uint64())
			pos += copy(buf[pos:], raw[:])
			continue
		}
		w := words[rng.Intn(len(words))]
		pos += copy(buf[pos:], w)
		if pos < len(buf) {
			buf[pos] = '/'
			pos++
		}
	}
}

// BlockPool is a pool of distinct, reusable block contents. Drawing the same
// index always yields the same bytes, so draws deduplicate.
type BlockPool struct {
	blockSize int
	seed      int64
	comp      bool
}

// NewBlockPool creates a pool of blockSize-byte blocks under a seed.
func NewBlockPool(blockSize int, seed int64, compressible bool) *BlockPool {
	return &BlockPool{blockSize: blockSize, seed: seed, comp: compressible}
}

// Block materializes pool block idx into buf (len must equal blockSize).
func (bp *BlockPool) Block(idx int64, buf []byte) {
	s := bp.seed*1000003 + idx
	if bp.comp {
		fillCompressible(buf, s)
	} else {
		fillRandom(buf, s)
	}
}
