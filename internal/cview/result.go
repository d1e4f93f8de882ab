package cview

import (
	"memagg/internal/agg"
	"memagg/internal/arena"
	"memagg/internal/hashtbl"
)

// Result is one evaluation of a view's standing query over its current
// window. Results are immutable and shared by every read of an unchanged
// view (the version cache); treat vector Values as read-only.
type Result struct {
	Name  string
	Query agg.Query

	// WindowStart is the window's exclusive lower watermark bound and
	// WindowEnd its inclusive upper one: the result covers exactly the
	// rows whose visibility watermark lies in (WindowStart, WindowEnd].
	WindowStart uint64
	WindowEnd   uint64

	PanesLive int
	Rows      uint64
	Groups    int
	Version   uint64

	// Truncated reports the window overlaps a stretch of rows recovery
	// could not replay (see View gap tracking): the result is exact over
	// the rows that survived, but short of the full window.
	Truncated bool

	// Value is the query result: []agg.GroupCount (q1, q7),
	// []agg.GroupFloat (q2, q3, quantile, mode), []agg.GroupUint
	// (sum/min/max), uint64 (q4), or float64 (q5, q6).
	Value any
}

// compute evaluates the view's query over the settled ring rs: merge the
// panes into one combined table with agg.MergeTable (exact Partial.Merge
// — the same fold the stream's merger and snapshots use), then run the
// shared kernels over it. Callers hold v.tmu, under which pane tables
// alone change, and pass the ring settle returned, so the merged table
// is consistent with rs's version by construction.
func (v *View) compute(rs ring) *Result {
	res := &Result{
		Name:        v.spec.Name,
		Query:       v.spec.Query,
		WindowStart: rs.windowStart,
		WindowEnd:   rs.lastWM,
		PanesLive:   len(rs.panes),
		Version:     rs.ver,
		Truncated:   rs.truncated,
	}
	bound := 0
	for _, ps := range rs.panes {
		res.Rows += ps.rows
		bound += ps.p.T.Len()
	}
	var merged agg.Table
	if len(rs.panes) == 1 {
		// Single live pane: query it directly, no merge copy.
		merged = rs.panes[0].p.Table
	} else if len(rs.panes) > 1 {
		merged.T = hashtbl.NewLinearProbe[agg.Partial](max(bound, paneTableCap))
		if v.withValues {
			merged.Ar = arena.New()
		}
		for _, ps := range rs.panes {
			agg.MergeTable(merged, ps.p.Table, v.withValues)
		}
	}
	res.Groups = merged.Len()
	res.Value = agg.Exec{}.Run(v.spec.Query, []agg.Table{merged}, res.Rows)
	return res
}
