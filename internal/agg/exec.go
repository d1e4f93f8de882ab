package agg

import (
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
	"memagg/internal/morsel"
	"memagg/internal/obs"
	"memagg/internal/xsort"
)

// Table pairs a partial-aggregate hash table with the arena its buffered
// value lists live in — the unit of merged state every reader of the
// query vocabulary holds: a stream generation's partitions and folded
// deltas, a continuous view's panes, a cluster gather's peer sets. A nil
// T holds no groups.
type Table struct {
	T  *hashtbl.LinearProbe[Partial]
	Ar *arena.Arena
}

// Len returns the table's group count.
func (tb Table) Len() int {
	if tb.T == nil {
		return 0
	}
	return tb.T.Len()
}

// MergeTable folds every group of src into dst — the table-granularity
// form of Partial.Merge, with the value lists too when values is set.
// Iteration delivers one group per callback, so the batched-hash
// discipline of the build kernels takes a staging buffer here: groups
// accumulate in blocks of hashtbl.HashBatch, each full block is
// Mix-hashed at once and probed with UpsertH, and the final short block
// hashes row by row.
func MergeTable(dst, src Table, values bool) {
	var (
		h  [hashtbl.HashBatch]uint64
		ks [hashtbl.HashBatch]uint64
		ps [hashtbl.HashBatch]*Partial
	)
	n := 0
	fold := func(k, hk uint64, p *Partial) {
		np := dst.T.UpsertH(k, hk)
		np.Merge(p)
		if values {
			np.MergeValues(dst.Ar, p, src.Ar)
		}
	}
	src.T.Iterate(func(k uint64, p *Partial) bool {
		ks[n], ps[n] = k, p
		n++
		if n == hashtbl.HashBatch {
			hashtbl.MixBatch(&h, ks[:])
			for j, bk := range ks {
				fold(bk, h[j], ps[j])
			}
			n = 0
		}
		return true
	})
	for j := 0; j < n; j++ {
		fold(ks[j], hashtbl.Mix(ks[j]), ps[j])
	}
}

// Exec runs the query kernels over key-disjoint parts: every group lives
// in exactly one part, fully merged. The kernels scan parts in parallel
// (one morsel per part) and write vector rows through precomputed
// offsets, so one pre-sized result fills with no per-worker buffers or
// concat and the output is deterministic for a fixed part list: part
// order, table iteration order within each. Results are identical at any
// worker count.
type Exec struct {
	// Workers is the scan parallelism; <= 1 scans on the caller.
	Workers int

	// Cutoff is the group count below which scans stay on the caller
	// regardless of Workers (worker startup would dominate); <= 0 never
	// forces the serial path.
	Cutoff int

	// Scan and Merge, when non-nil, record the partition scan and the
	// cross-worker merge phases.
	Scan, Merge *obs.Histogram
}

// Run executes q over parts, which jointly hold rows rows (Q4's answer),
// and returns the result: []GroupCount (q1, q7), []GroupFloat (q2, q3,
// quantile, mode), []GroupUint (reduce), uint64 (q4) or float64 (q5,
// q6). Vector rows follow the part order except Q7, which is ascending by
// key; empty vector results are non-nil. q must pass Check for the
// parts' values.
func (x Exec) Run(q Query, parts []Table, rows uint64) any {
	switch q.ID {
	case QCountByKey:
		return vector(x, parts, func(k uint64, p *Partial) GroupCount {
			return GroupCount{Key: k, Count: p.Count()}
		})
	case QAvgByKey:
		return vector(x, parts, func(k uint64, p *Partial) GroupFloat {
			return GroupFloat{Key: k, Val: p.Avg()}
		})
	case QReduce:
		return vector(x, parts, func(k uint64, p *Partial) GroupUint {
			return GroupUint{Key: k, Val: p.Reduce(q.Op)}
		})
	case QMedianByKey:
		return x.Holistic(parts, MedianFunc)
	case QQuantile:
		return x.Holistic(parts, QuantileFunc(q.P))
	case QMode:
		return x.Holistic(parts, ModeFunc)
	case QCount:
		return rows
	case QAvg:
		return x.avg(parts)
	case QMedian:
		return x.median(parts)
	case QRange:
		return x.countRange(parts, q.Lo, q.Hi)
	}
	return nil
}

// offsets returns each part's exclusive start offset in a result laid out
// part by part, plus the total group count.
func offsets(parts []Table) (offs []int, total int) {
	offs = make([]int, len(parts))
	for q, tb := range parts {
		offs[q] = total
		total += tb.Len()
	}
	return offs, total
}

// workers returns the parallelism for a scan over total groups.
func (x Exec) workers(total int) int {
	if x.Workers <= 1 || (x.Cutoff > 0 && total < x.Cutoff) {
		return 1
	}
	return x.Workers
}

// scan runs body over every non-empty part on the given workers and
// records the scan phase.
func (x Exec) scan(parts []Table, workers int, body func(worker, q int)) {
	mk := obs.Start()
	morsel.Parts(len(parts), workers, func(w, q int) {
		if parts[q].T != nil {
			body(w, q)
		}
	})
	tick(mk, x.Scan)
}

func tick(mk obs.Mark, h *obs.Histogram) {
	if h != nil {
		mk.Tick(h)
	}
}

// vector is the offset-writing per-group kernel: one row per group.
func vector[R any](x Exec, parts []Table, row func(k uint64, p *Partial) R) []R {
	offs, total := offsets(parts)
	out := make([]R, total)
	x.scan(parts, x.workers(total), func(_, q int) {
		i := offs[q]
		parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			out[i] = row(k, p)
			i++
			return true
		})
	})
	return out
}

// Holistic runs fn over every group's value multiset: one (key,
// fn(values)) row per group. The parts must buffer values. Each worker
// reuses one scratch buffer, since the holistic functions may reorder
// their argument (Median and Quantile select in place).
func (x Exec) Holistic(parts []Table, fn HolisticFunc) []GroupFloat {
	offs, total := offsets(parts)
	out := make([]GroupFloat, total)
	workers := x.workers(total)
	scratch := make([][]uint64, workers)
	x.scan(parts, workers, func(w, q int) {
		i, ar, buf := offs[q], parts[q].Ar, scratch[w]
		parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			buf = p.AppendValues(ar, buf[:0])
			out[i] = GroupFloat{Key: k, Val: fn(buf)}
			i++
			return true
		})
		scratch[w] = buf
	})
	return out
}

// avg is Q5: one float64 division of the exact total sum by the exact
// row count. Per-part integer partial sums merge exactly, so the
// parallel result is bit-identical to the serial one.
func (x Exec) avg(parts []Table) float64 {
	_, total := offsets(parts)
	workers := x.workers(total)
	// One cache line per worker: the partial sums are written in the
	// scan's hot loop.
	type sumCount struct {
		sum, count uint64
		_          [6]uint64
	}
	acc := make([]sumCount, workers)
	x.scan(parts, workers, func(w, q int) {
		sum, count := acc[w].sum, acc[w].count
		parts[q].T.Iterate(func(_ uint64, p *Partial) bool {
			sum += p.Sum()
			count += p.Count()
			return true
		})
		acc[w].sum, acc[w].count = sum, count
	})
	mk := obs.Start()
	var sum, count uint64
	for _, pc := range acc {
		sum += pc.sum
		count += pc.count
	}
	tick(mk, x.Merge)
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

// median is Q6: MEDIAN over the key column, exact from the per-group
// counts — gather the (key, count) pairs, sort them by key, and walk
// cumulative counts to the middle rank(s), averaging the two for an even
// row count.
func (x Exec) median(parts []Table) float64 {
	offs, total := offsets(parts)
	groups := make([]xsort.KV, total)
	workers := x.workers(total)
	counts := make([]uint64, workers*8) // one cache line per worker
	x.scan(parts, workers, func(w, q int) {
		i, rows := offs[q], counts[w*8]
		parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			c := p.Count()
			groups[i] = xsort.KV{K: k, V: c}
			rows += c
			i++
			return true
		})
		counts[w*8] = rows
	})
	var n uint64
	for w := 0; w < workers; w++ {
		n += counts[w*8]
	}
	if n == 0 {
		return 0
	}
	mk := obs.Start()
	x.sortKV(groups, workers)
	m := float64(keyAtRank(groups, n/2))
	if n%2 == 0 {
		m = (float64(keyAtRank(groups, n/2-1)) + m) / 2
	}
	tick(mk, x.Merge)
	return m
}

// countRange is Q7: Q1 restricted to lo <= key <= hi, rows ascending by
// key. Matching rows collect into per-worker buffers pre-sized by the
// group count and the range's width, then one sort orders the
// concatenation (hash parts interleave key ranges, so a global sort is
// needed regardless).
func (x Exec) countRange(parts []Table, lo, hi uint64) []GroupCount {
	_, total := offsets(parts)
	workers := x.workers(total)
	// Selectivity guess: no more groups can match than exist, and no more
	// than the range has distinct keys (width 0 means the full uint64
	// domain).
	hint := total
	if width := hi - lo + 1; width != 0 && width < uint64(hint) {
		hint = int(width)
	}
	bufs := make([][]xsort.KV, workers)
	x.scan(parts, workers, func(w, q int) {
		buf := bufs[w]
		if buf == nil {
			buf = make([]xsort.KV, 0, hint/workers+1)
		}
		parts[q].T.Iterate(func(k uint64, p *Partial) bool {
			if lo <= k && k <= hi {
				buf = append(buf, xsort.KV{K: k, V: p.Count()})
			}
			return true
		})
		bufs[w] = buf
	})
	mk := obs.Start()
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	rows := make([]xsort.KV, 0, n)
	for _, b := range bufs {
		rows = append(rows, b...)
	}
	x.sortKV(rows, workers)
	out := make([]GroupCount, len(rows))
	for i, r := range rows {
		out[i] = GroupCount{Key: r.K, Count: r.V}
	}
	tick(mk, x.Merge)
	return out
}

// sortKV orders records ascending by key via internal/xsort: the parallel
// block-introsort merge when both the input and the worker budget warrant
// it, serial introsort otherwise (the Fig2/Fig10-measured routing).
func (x Exec) sortKV(a []xsort.KV, workers int) {
	if workers > 1 && len(a) >= x.Cutoff {
		xsort.SortBIKV(a, workers)
		return
	}
	xsort.IntrosortKV(a)
}

// keyAtRank returns the key at 0-based rank r of the expansion of the
// key-sorted (key, count) runs.
func keyAtRank(groups []xsort.KV, r uint64) uint64 {
	var cum uint64
	for _, g := range groups {
		cum += g.V
		if r < cum {
			return g.K
		}
	}
	return groups[len(groups)-1].K
}
