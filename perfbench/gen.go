package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
)

// The input generator belongs to the benchmark, not to the program: it
// shares no code with internal/dataset, so a change to the program cannot
// change what the benchmark feeds it. Every input derives from the --seed
// through splitmix64, and every run prints a digest of the bytes it
// generated so two runs can be shown to have consumed identical inputs.

// rng is splitmix64 (Steele, Lea & Flood 2014).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	r := &rng{s: seed ^ (stream * 0xd1b54a32d192ed03)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a value in [0, n); the modulo bias is below 2^-40 for the
// sizes used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipfExponent is the skew the paper's Zipf data sets use.
const zipfExponent = 0.5

// zipf draws keys 1..card with P(rank k) proportional to k^-e. Ranks map
// to keys through a permutation, so the heavy keys are spread over the
// key space instead of clustering at its low end. The serving workloads
// draw the permutation from a fixed stream, not the run's seed: which
// keys are heavy decides how load splits over shards and cluster nodes,
// and that split should not change from run to run.
type zipf struct {
	cdf  []float64
	perm []uint32
}

func newZipf(card int, e float64, r *rng) *zipf {
	z := &zipf{cdf: make([]float64, card), perm: make([]uint32, card)}
	total := 0.0
	for k := 0; k < card; k++ {
		total += math.Pow(float64(k+1), -e)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	z.cdf[card-1] = 1
	for i := range z.perm {
		z.perm[i] = uint32(i)
	}
	shuffle32(z.perm, r)
	return z
}

func (z *zipf) key(r *rng) uint64 {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.perm) {
		i = len(z.perm) - 1
	}
	return uint64(z.perm[i]) + 1
}

func shuffle32(a []uint32, r *rng) {
	for i := len(a) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		a[i], a[j] = a[j], a[i]
	}
}

// value draws a row value: small enough that sums over every run stay far
// from overflow, wide enough that medians and quantiles are not ties.
func value(r *rng) uint64 { return r.next() % 1_000_000 }

// zipfRows returns n rows with Zipf keys over 1..card.
func zipfRows(n int, z *zipf, r *rng) (keys, vals []uint64) {
	keys = make([]uint64, n)
	vals = make([]uint64, n)
	for i := range keys {
		keys[i] = z.key(r)
		vals[i] = value(r)
	}
	return keys, vals
}

// seqRows returns n rows whose keys cycle through 1..card and are then
// shuffled: every key occurs n/card times, in random order.
func seqRows(n, card int, r *rng) (keys, vals []uint64) {
	keys = make([]uint64, n)
	vals = make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i%card) + 1
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		keys[i], keys[j] = keys[j], keys[i]
	}
	for i := range vals {
		vals[i] = value(r)
	}
	return keys, vals
}

// digest accumulates a SHA-256 over every generated column, in order.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(cols ...[]uint64) {
	var buf [8 << 10]byte
	for _, col := range cols {
		for len(col) > 0 {
			n := min(len(col), len(buf)/8)
			for i, v := range col[:n] {
				binary.LittleEndian.PutUint64(buf[i*8:], v)
			}
			d.h.Write(buf[:n*8])
			col = col[n:]
		}
	}
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
