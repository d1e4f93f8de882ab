package stream

import (
	"memagg/internal/agg"
	"memagg/internal/arena"
)

// Snapshot is a consistent, immutable read view of the stream: the base
// generation plus every delta sealed before the snapshot was taken, pinned
// by a single atomic pointer load. All queries over one snapshot see
// exactly Watermark() rows — ingest and merging proceed untouched
// underneath, and the pinned state is reclaimed by the GC when the last
// snapshot referencing it is dropped.
//
// Query results use the hash-engine conventions of internal/agg: vector
// row order is unspecified (sort if you need order — CountRange, which is
// inherently ordered, returns ascending keys), and results are identical
// to running the corresponding batch engine over the same rows.
//
// A Snapshot is safe for concurrent use. Query state is shared at the
// view level, not the snapshot level: the first query over a view that
// pins unmerged deltas folds them partition-wise into key-disjoint
// sources (in parallel at Config.QueryWorkers), the shared agg.Exec
// kernels scan those partitions in parallel above a serial group-count
// cutoff, and on a cache-enabled stream materialized results are memoized
// on the view — keyed by the agg.Query itself, single-flight — so every
// snapshot of an unchanged view shares both the fold and the results.
// Cached vector results are shared slices; treat them as read-only.
type Snapshot struct {
	s *Stream
	v *view
}

// Snapshot pins the current view. Never blocks writers or the merger.
func (s *Stream) Snapshot() *Snapshot {
	s.m.snapshots.Inc()
	return &Snapshot{s: s, v: s.view.Load()}
}

// Watermark returns the number of rows this snapshot covers. Every query
// result is exactly consistent with these rows.
func (sn *Snapshot) Watermark() uint64 { return sn.v.watermark }

// serialQueryCutoff is the group count below which query kernels scan on
// the calling goroutine: under it the whole result fits comfortably in
// cache and the partition scan finishes in microseconds, so worker
// goroutine startup would dominate (measured with `-exp query`; a var so
// the equivalence gate can force both paths).
var serialQueryCutoff = 1 << 13

// sources returns key-disjoint tables jointly holding every group,
// folding the view's sealed deltas partition-wise on first use (see
// view.sources). Entries with a nil table hold no groups.
func (sn *Snapshot) sources() []agg.Table { return sn.v.sources(sn.s) }

// exec returns the kernel configuration for this stream: the configured
// query workers above the serial cutoff (Config.QuerySerialCutoff when
// set, the measured default otherwise), with the scan and merge phases
// recorded in the stream's query histograms.
func (sn *Snapshot) exec() agg.Exec {
	cutoff := sn.s.cfg.QuerySerialCutoff
	if cutoff == 0 {
		cutoff = serialQueryCutoff
	}
	return agg.Exec{
		Workers: sn.s.cfg.QueryWorkers,
		Cutoff:  cutoff,
		Scan:    sn.s.m.queryScanLat,
		Merge:   sn.s.m.queryMergeLat,
	}
}

// Run executes one query of the shared vocabulary over the snapshot and
// returns its result in the agg row types (see agg.Exec.Run). Invalid
// queries fail with agg.ErrBadQuery, holistic ones on a distributive
// stream with agg.ErrUnsupported. Q4 is the watermark itself; every other
// result goes through the view's result cache.
func (sn *Snapshot) Run(q agg.Query) (any, error) {
	if err := q.Check(sn.s.cfg.Holistic); err != nil {
		return nil, err
	}
	if q.ID == agg.QCount {
		return sn.v.watermark, nil
	}
	compute := func() any { return sn.exec().Run(q, sn.sources(), sn.v.watermark) }
	c := sn.v.cache
	if c == nil {
		return compute(), nil
	}
	return c.do(sn.s.m, q, compute), nil
}

// EachGroup visits every group exactly once with its fully merged partial
// and the arena its buffered values live in — the export the cluster
// transport (internal/cluster) serializes from. The visited partials are
// the snapshot's live state: read-only, valid while the snapshot is held.
func (sn *Snapshot) EachGroup(fn func(k uint64, p *agg.Partial, ar *arena.Arena)) {
	for _, tb := range sn.sources() {
		if tb.T == nil {
			continue
		}
		ar := tb.Ar
		tb.T.Iterate(func(k uint64, p *agg.Partial) bool {
			fn(k, p, ar)
			return true
		})
	}
}

// HolisticEnabled reports whether this snapshot's stream retains value
// multisets (median/quantile/mode queries answerable).
func (sn *Snapshot) HolisticEnabled() bool { return sn.s.cfg.Holistic }

// Groups returns the number of distinct keys the snapshot covers. This is
// the exact count, which requires the delta fold when unmerged deltas are
// pinned (keys may repeat across layers); for pre-sizing, GroupBound is
// free.
func (sn *Snapshot) Groups() int {
	total := 0
	for _, tb := range sn.sources() {
		total += tb.Len()
	}
	return total
}

// GroupBound returns a cheap upper bound on Groups — base groups plus
// sealed delta groups, without cross-layer deduplication. It never
// triggers the delta fold, so result pre-sizing can use it at zero cost.
func (sn *Snapshot) GroupBound() int { return sn.v.groupBound }

// CountByKey executes Q1: one (key, COUNT(*)) row per distinct key.
func (sn *Snapshot) CountByKey() []agg.GroupCount {
	rows, _ := agg.As[[]agg.GroupCount](sn.Run, agg.Query{ID: agg.QCountByKey})
	return rows
}

// AvgByKey executes Q2: one (key, AVG(val)) row per distinct key, computed
// as one float64 division of the exact integer sum — bit-identical to the
// batch engines.
func (sn *Snapshot) AvgByKey() []agg.GroupFloat {
	rows, _ := agg.As[[]agg.GroupFloat](sn.Run, agg.Query{ID: agg.QAvgByKey})
	return rows
}

// Reduce executes the generalized distributive vector query: one
// (key, op(val)) row per distinct key, for any ReduceOp. An op outside
// the ReduceOp set returns nil.
func (sn *Snapshot) Reduce(op agg.ReduceOp) []agg.GroupUint {
	rows, _ := agg.As[[]agg.GroupUint](sn.Run, agg.Query{ID: agg.QReduce, Op: op})
	return rows
}

// Holistic executes the generalized holistic vector query: one
// (key, fn(group's values)) row per distinct key. Requires Config.Holistic;
// otherwise the value multisets were not retained and the query returns
// agg.ErrUnsupported. An arbitrary fn cannot key the result cache — use
// MedianByKey/QuantileByKey/ModeByKey for the cached forms.
func (sn *Snapshot) Holistic(fn agg.HolisticFunc) ([]agg.GroupFloat, error) {
	if !sn.s.cfg.Holistic {
		return nil, agg.ErrUnsupported
	}
	return sn.exec().Holistic(sn.sources(), fn), nil
}

// MedianByKey executes Q3 (holistic): one (key, MEDIAN(val)) row per
// distinct key. Requires Config.Holistic.
func (sn *Snapshot) MedianByKey() ([]agg.GroupFloat, error) {
	return agg.As[[]agg.GroupFloat](sn.Run, agg.Query{ID: agg.QMedianByKey})
}

// QuantileByKey executes the nearest-rank q-quantile per distinct key.
// Requires Config.Holistic; q outside [0, 1] (or NaN) is agg.ErrBadQuery.
func (sn *Snapshot) QuantileByKey(q float64) ([]agg.GroupFloat, error) {
	return agg.As[[]agg.GroupFloat](sn.Run, agg.Query{ID: agg.QQuantile, P: q})
}

// ModeByKey executes the most-frequent-value query per distinct key.
// Requires Config.Holistic.
func (sn *Snapshot) ModeByKey() ([]agg.GroupFloat, error) {
	return agg.As[[]agg.GroupFloat](sn.Run, agg.Query{ID: agg.QMode})
}

// Count executes Q4: COUNT(*) over the snapshot — the watermark itself.
func (sn *Snapshot) Count() uint64 { return sn.v.watermark }

// Avg executes Q5: AVG over the value column, as one float64 division of
// the exact total sum by the exact row count — bit-identical at any
// worker count.
func (sn *Snapshot) Avg() float64 {
	avg, _ := agg.As[float64](sn.Run, agg.Query{ID: agg.QAvg})
	return avg
}

// Median executes Q6: MEDIAN over the key column. Unlike the batch hash
// engines — which cannot enumerate keys in order and return ErrUnsupported
// — the snapshot's per-group counts make the scalar median exact. The
// error is always nil.
func (sn *Snapshot) Median() (float64, error) {
	return agg.As[float64](sn.Run, agg.Query{ID: agg.QMedian})
}

// CountRange executes Q7: Q1 restricted to lo <= key <= hi, rows ascending
// by key (the tree-engine convention — a range query is inherently
// ordered). The error is always nil; the signature matches the batch
// engines'.
func (sn *Snapshot) CountRange(lo, hi uint64) ([]agg.GroupCount, error) {
	return agg.As[[]agg.GroupCount](sn.Run, agg.Query{ID: agg.QRange, Lo: lo, Hi: hi})
}
