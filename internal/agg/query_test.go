package agg

import (
	"errors"
	"math"
	"testing"
)

// TestParseQuery is the vocabulary table: every spelling resolves to its
// query id with only its own parameters carried, bad names and
// out-of-range parameters (NaN included) are ErrBadQuery, and the
// canonical spelling parses back to the same query.
func TestParseQuery(t *testing.T) {
	cases := []struct {
		name string
		p    float64
		want Query
		err  error
	}{
		{name: "q1", want: Query{ID: QCountByKey}},
		{name: "count_by_key", want: Query{ID: QCountByKey}},
		{name: "q2", want: Query{ID: QAvgByKey}},
		{name: "avg_by_key", want: Query{ID: QAvgByKey}},
		{name: "q3", want: Query{ID: QMedianByKey}},
		{name: "median_by_key", want: Query{ID: QMedianByKey}},
		{name: "q4", want: Query{ID: QCount}},
		{name: "count", want: Query{ID: QCount}},
		{name: "q5", want: Query{ID: QAvg}},
		{name: "avg", want: Query{ID: QAvg}},
		{name: "q6", want: Query{ID: QMedian}},
		{name: "median", want: Query{ID: QMedian}},
		{name: "q7", want: Query{ID: QRange, Lo: 3, Hi: 9}},
		{name: "range", want: Query{ID: QRange, Lo: 3, Hi: 9}},
		{name: "sum", want: Query{ID: QReduce, Op: OpSum}},
		{name: "min", want: Query{ID: QReduce, Op: OpMin}},
		{name: "max", want: Query{ID: QReduce, Op: OpMax}},
		{name: "mode", want: Query{ID: QMode}},
		{name: "quantile", p: 0.9, want: Query{ID: QQuantile, P: 0.9}},
		{name: "quantile", p: 0, want: Query{ID: QQuantile}},
		{name: "quantile", p: 1, want: Query{ID: QQuantile, P: 1}},
		{name: "quantile", p: math.NaN(), err: ErrBadQuery},
		{name: "quantile", p: 1.5, err: ErrBadQuery},
		{name: "quantile", p: -3, err: ErrBadQuery},
		{name: "quantile", p: math.Inf(1), err: ErrBadQuery},
		{name: "nonsense", err: ErrBadQuery},
		{name: "", err: ErrBadQuery},
		{name: "Q1", err: ErrBadQuery},
	}
	for _, c := range cases {
		q, err := ParseQuery(c.name, c.p, 3, 9)
		if c.err != nil {
			if !errors.Is(err, c.err) {
				t.Errorf("ParseQuery(%q, p=%v): err %v, want %v", c.name, c.p, err, c.err)
			}
			continue
		}
		if err != nil || q != c.want {
			t.Errorf("ParseQuery(%q, p=%v) = %+v, %v; want %+v", c.name, c.p, q, err, c.want)
			continue
		}
		// The canonical spelling (minus its parameter decoration) parses
		// back to the same query.
		name := map[QueryID]string{QRange: "q7", QQuantile: "quantile"}[q.ID]
		if name == "" {
			name = q.String()
		}
		if back, err := ParseQuery(name, q.P, q.Lo, q.Hi); err != nil || back != q {
			t.Errorf("%v: canonical %q parses to %+v, %v", q, name, back, err)
		}
	}
}

// TestQueryCheck covers validation of hand-built queries and the
// holistic support gate.
func TestQueryCheck(t *testing.T) {
	for _, q := range []Query{
		{ID: QueryID(0)},
		{ID: QueryID(99)},
		{ID: QReduce, Op: ReduceOp(42)},
		{ID: QQuantile, P: math.NaN()},
	} {
		if err := q.Check(true); !errors.Is(err, ErrBadQuery) {
			t.Errorf("Check(%+v) = %v, want ErrBadQuery", q, err)
		}
	}
	for _, q := range []Query{{ID: QMedianByKey}, {ID: QQuantile, P: 0.5}, {ID: QMode}} {
		if !q.NeedsValues() {
			t.Errorf("%v: NeedsValues = false", q)
		}
		if err := q.Check(false); err != ErrUnsupported {
			t.Errorf("Check(%v, no values) = %v, want ErrUnsupported", q, err)
		}
		if err := q.Check(true); err != nil {
			t.Errorf("Check(%v, values) = %v", q, err)
		}
	}
	if err := (Query{ID: QReduce, Op: OpCount}).Check(false); err != nil {
		t.Errorf("reduce count: %v", err)
	}
}
