package cluster

import (
	"cmp"
	"slices"

	"memagg/internal/agg"
)

// Merged is one consistent cluster-wide aggregate state: every group's
// merged partial in one table, tagged with the composed watermark vector
// it reflects. It answers the paper's Q1–Q7 (plus quantile and mode)
// through the shared agg.Exec kernels, with results exactly equal to a
// single stream that ingested every row — the distributive/algebraic
// cases by Partial.Merge, the holistic cases because median/quantile/mode
// are multiset functions, indifferent to the order the per-node value
// lists concatenate in.
//
// Vector results are returned sorted ascending by key: the merged table's
// iteration order depends on gather order, so sorting is what makes the
// output deterministic (the tree-engine convention; single-node hash
// results are unordered and must be sorted for comparison anyway).
type Merged struct {
	// Watermark is the composed cluster watermark this state reflects:
	// element i is peer i's snapshot watermark.
	Watermark Watermark

	// Holistic reports whether value multisets were retained on every
	// peer — the gate for MedianByKey/QuantileByKey/ModeByKey.
	Holistic bool

	tb agg.Table
}

// merge folds the peers' decoded sets into one Merged state: the first
// set's table becomes the cluster table and the rest fold into it with
// agg.MergeTable — exact even when a key has state on two peers.
func merge(sets []*peerSet) *Merged {
	m := &Merged{Watermark: make(Watermark, len(sets)), Holistic: true}
	for i, set := range sets {
		m.Watermark[i] = set.hdr.Watermark
		m.Holistic = m.Holistic && set.hdr.Holistic
	}
	for i, set := range sets {
		if i == 0 {
			m.tb = set.tb
			continue
		}
		agg.MergeTable(m.tb, set.tb, m.Holistic)
	}
	return m
}

// Groups returns the number of distinct keys across the cluster.
func (m *Merged) Groups() int { return m.tb.Len() }

// Run executes one query of the shared vocabulary over the merged state,
// with vector rows ascending by key. Invalid queries fail with
// agg.ErrBadQuery; holistic ones fail with agg.ErrUnsupported unless
// every peer retains value multisets.
func (m *Merged) Run(q agg.Query) (any, error) {
	if err := q.Check(m.Holistic); err != nil {
		return nil, err
	}
	v := agg.Exec{}.Run(q, []agg.Table{m.tb}, m.Watermark.Total())
	switch rows := v.(type) {
	case []agg.GroupCount:
		slices.SortFunc(rows, func(a, b agg.GroupCount) int { return cmp.Compare(a.Key, b.Key) })
	case []agg.GroupFloat:
		slices.SortFunc(rows, func(a, b agg.GroupFloat) int { return cmp.Compare(a.Key, b.Key) })
	case []agg.GroupUint:
		slices.SortFunc(rows, func(a, b agg.GroupUint) int { return cmp.Compare(a.Key, b.Key) })
	}
	return v, nil
}

// CountByKey executes Q1: one (key, COUNT(*)) row per distinct key,
// ascending by key.
func (m *Merged) CountByKey() []agg.GroupCount {
	rows, _ := agg.As[[]agg.GroupCount](m.Run, agg.Query{ID: agg.QCountByKey})
	return rows
}

// AvgByKey executes Q2: one (key, AVG(val)) row per distinct key,
// ascending by key.
func (m *Merged) AvgByKey() []agg.GroupFloat {
	rows, _ := agg.As[[]agg.GroupFloat](m.Run, agg.Query{ID: agg.QAvgByKey})
	return rows
}

// Reduce executes the generalized distributive vector query for op,
// ascending by key. An op outside the ReduceOp set returns nil.
func (m *Merged) Reduce(op agg.ReduceOp) []agg.GroupUint {
	rows, _ := agg.As[[]agg.GroupUint](m.Run, agg.Query{ID: agg.QReduce, Op: op})
	return rows
}

// MedianByKey executes Q3 (holistic): per-key median.
func (m *Merged) MedianByKey() ([]agg.GroupFloat, error) {
	return agg.As[[]agg.GroupFloat](m.Run, agg.Query{ID: agg.QMedianByKey})
}

// QuantileByKey executes the nearest-rank q-quantile per distinct key;
// q outside [0, 1] (or NaN) is agg.ErrBadQuery.
func (m *Merged) QuantileByKey(q float64) ([]agg.GroupFloat, error) {
	return agg.As[[]agg.GroupFloat](m.Run, agg.Query{ID: agg.QQuantile, P: q})
}

// ModeByKey executes the most-frequent-value query per distinct key.
func (m *Merged) ModeByKey() ([]agg.GroupFloat, error) {
	return agg.As[[]agg.GroupFloat](m.Run, agg.Query{ID: agg.QMode})
}

// Count executes Q4: COUNT(*) over the cluster — the watermark total.
func (m *Merged) Count() uint64 { return m.Watermark.Total() }

// Avg executes Q5: AVG over the value column, as one division of the
// exact cluster-wide sum by the exact count — bit-identical to the
// single-node kernel, which computes the same two integers.
func (m *Merged) Avg() float64 {
	avg, _ := agg.As[float64](m.Run, agg.Query{ID: agg.QAvg})
	return avg
}

// Median executes Q6: MEDIAN over the key column, exact via the sorted
// (key, count) walk of the shared kernel. The error is always nil.
func (m *Merged) Median() (float64, error) {
	return agg.As[float64](m.Run, agg.Query{ID: agg.QMedian})
}

// CountRange executes Q7: Q1 restricted to lo <= key <= hi, ascending by
// key. The error is always nil; the signature matches the engines'.
func (m *Merged) CountRange(lo, hi uint64) ([]agg.GroupCount, error) {
	return agg.As[[]agg.GroupCount](m.Run, agg.Query{ID: agg.QRange, Lo: lo, Hi: hi})
}
