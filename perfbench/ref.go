package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"memagg"
)

// pool is the fixed set of distinct chunks a workload cycles through,
// generated before the measured phase and pre-encoded in the MAGC wire
// format. The count of acknowledged posts per chunk is all the reference
// needs: the expected answer is each chunk folded in once per ack.
type pool struct {
	chunks []memagg.Chunk
	bodies [][]byte
	acked  []atomic.Int64
}

func newPool(n, rows int, d *digest, gen func(rows int) (keys, vals []uint64)) *pool {
	p := &pool{chunks: make([]memagg.Chunk, n), bodies: make([][]byte, n), acked: make([]atomic.Int64, n)}
	for i := range p.chunks {
		keys, vals := gen(rows)
		d.add(keys, vals)
		p.chunks[i] = memagg.Chunk{Keys: keys, Vals: vals}
		p.bodies[i] = memagg.AppendChunkWire(nil, p.chunks[i])
	}
	return p
}

// ackedRows returns the rows of every acknowledged post.
func (p *pool) ackedRows() uint64 {
	var n uint64
	for i := range p.chunks {
		n += uint64(p.acked[i].Load()) * uint64(p.chunks[i].Rows())
	}
	return n
}

// foldInto adds every acknowledged post to ref.
func (p *pool) foldInto(ref *reference) {
	for i, c := range p.chunks {
		if m := p.acked[i].Load(); m > 0 {
			ref.add(c.Keys, c.Vals, uint64(m))
		}
	}
}

// reference answers the checked queries from a plain map over the
// generated rows. It shares no code with the program.
type reference struct {
	holistic bool
	rows     uint64
	groups   map[uint64]*refGroup
}

type refGroup struct {
	count, sum, min, max uint64
	vals                 []uint64
	sorted               bool
}

func newReference(holistic bool) *reference {
	return &reference{holistic: holistic, groups: make(map[uint64]*refGroup)}
}

// add folds rows into the reference mult times over.
func (r *reference) add(keys, vals []uint64, mult uint64) {
	for i, k := range keys {
		v := vals[i]
		g := r.groups[k]
		if g == nil {
			g = &refGroup{min: math.MaxUint64}
			r.groups[k] = g
		}
		g.count += mult
		g.sum += v * mult
		g.min = min(g.min, v)
		g.max = max(g.max, v)
		if r.holistic {
			for j := uint64(0); j < mult; j++ {
				g.vals = append(g.vals, v)
			}
			g.sorted = false
		}
	}
	r.rows += uint64(len(keys)) * mult
}

func (g *refGroup) sortedVals() []uint64 {
	if !g.sorted {
		sort.Slice(g.vals, func(i, j int) bool { return g.vals[i] < g.vals[j] })
		g.sorted = true
	}
	return g.vals
}

func refMedian(a []uint64) float64 {
	n := len(a)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(a[n/2])
	}
	return (float64(a[n/2-1]) + float64(a[n/2])) / 2
}

// refQuantile is the nearest-rank quantile the program documents:
// element int(q*(n-1)) of the ascending values.
func refQuantile(a []uint64, q float64) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(a[int(q*float64(len(a)-1))])
}

// row is one group of a vector answer, in whichever value type the query
// returns; the checker compares all of them as float64, exactly for
// integer results and to 1e-9 relative for averages.
type row struct {
	Key   uint64
	Value float64
}

// expect returns the reference answer for a vector query, keyed by group.
func (r *reference) expect(q query) map[uint64]float64 {
	out := make(map[uint64]float64, len(r.groups))
	for k, g := range r.groups {
		switch q.name {
		case "q1":
			out[k] = float64(g.count)
		case "q2":
			out[k] = float64(g.sum) / float64(g.count)
		case "sum":
			out[k] = float64(g.sum)
		case "q7":
			if k >= q.lo && k <= q.hi {
				out[k] = float64(g.count)
			}
		case "q3":
			out[k] = refMedian(g.sortedVals())
		case "quantile":
			out[k] = refQuantile(g.sortedVals(), q.p)
		}
	}
	return out
}

// medianKey is the scalar median over the key column (Q6).
func (r *reference) medianKey() float64 {
	keys := make([]uint64, 0, len(r.groups))
	for k := range r.groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	at := func(rank uint64) uint64 {
		for _, k := range keys {
			c := r.groups[k].count
			if rank < c {
				return k
			}
			rank -= c
		}
		return 0
	}
	n := r.rows
	if n == 0 {
		return 0
	}
	m := float64(at(n / 2))
	if n%2 == 0 {
		m = (float64(at(n/2-1)) + m) / 2
	}
	return m
}

// compareRows checks a vector answer against the reference answer and
// describes the first difference.
func compareRows(got []row, want map[uint64]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	seen := make(map[uint64]bool, len(got))
	for _, g := range got {
		w, ok := want[g.Key]
		if !ok || seen[g.Key] {
			return fmt.Errorf("unexpected or repeated group %d", g.Key)
		}
		seen[g.Key] = true
		if !sameValue(g.Value, w) {
			return fmt.Errorf("group %d = %v, want %v", g.Key, g.Value, w)
		}
	}
	return nil
}

func sameValue(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
}
