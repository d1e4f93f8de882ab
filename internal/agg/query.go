package agg

import (
	"errors"
	"fmt"
)

// ErrBadQuery reports a query that is not part of the vocabulary: an
// unknown name, an unknown reduce op, or a parameter out of range (a
// quantile p outside [0, 1], NaN included).
var ErrBadQuery = errors.New("agg: invalid query")

// QueryID names one query of the vocabulary every merged-partial reader
// answers — stream snapshots, continuous views and the cluster gather:
// the paper's Q1–Q7 plus the generalized reduce, quantile and mode. The
// numbering is persisted (continuous-view definitions store it as
// query_id), so existing ids never change.
type QueryID int

const (
	QCountByKey  QueryID = iota + 1 // Q1: (key, COUNT(*)) per key
	QAvgByKey                       // Q2: (key, AVG(val)) per key
	QMedianByKey                    // Q3: (key, MEDIAN(val)) per key; holistic
	QCount                          // Q4: COUNT(*)
	QAvg                            // Q5: AVG(val)
	QMedian                         // Q6: MEDIAN over the key column
	QRange                          // Q7: Q1 restricted to Lo <= key <= Hi, ascending
	QReduce                         // (key, Op(val)) per key for a distributive Op
	QQuantile                       // (key, P-quantile of vals) per key; holistic
	QMode                           // (key, most frequent val) per key; holistic
)

// Query is one query: the id plus its parameters (Op for QReduce, P for
// QQuantile, Lo/Hi for QRange; the rest leave them zero). A Query is a
// comparable value, so it keys result caches directly.
type Query struct {
	ID QueryID
	Op ReduceOp
	P  float64
	Lo uint64
	Hi uint64
}

// ParseQuery resolves a query name — the /v1/query spellings: q1..q7 and
// their aliases, sum/min/max, quantile (with p), mode — into a validated
// Query. Errors wrap ErrBadQuery.
func ParseQuery(name string, p float64, lo, hi uint64) (Query, error) {
	var q Query
	switch name {
	case "q1", "count_by_key":
		q = Query{ID: QCountByKey}
	case "q2", "avg_by_key":
		q = Query{ID: QAvgByKey}
	case "q3", "median_by_key":
		q = Query{ID: QMedianByKey}
	case "q4", "count":
		q = Query{ID: QCount}
	case "q5", "avg":
		q = Query{ID: QAvg}
	case "q6", "median":
		q = Query{ID: QMedian}
	case "q7", "range":
		q = Query{ID: QRange, Lo: lo, Hi: hi}
	case "sum":
		q = Query{ID: QReduce, Op: OpSum}
	case "min":
		q = Query{ID: QReduce, Op: OpMin}
	case "max":
		q = Query{ID: QReduce, Op: OpMax}
	case "quantile":
		q = Query{ID: QQuantile, P: p}
	case "mode":
		q = Query{ID: QMode}
	default:
		return Query{}, fmt.Errorf("%w: unknown query %q", ErrBadQuery, name)
	}
	return q, q.Validate()
}

// Validate reports whether q is a well-formed query. Errors wrap
// ErrBadQuery.
func (q Query) Validate() error {
	switch q.ID {
	case QCountByKey, QAvgByKey, QMedianByKey, QCount, QAvg, QMedian, QRange, QMode:
		return nil
	case QReduce:
		switch q.Op {
		case OpCount, OpSum, OpMin, OpMax:
			return nil
		}
		return fmt.Errorf("%w: unknown reduce op %d", ErrBadQuery, int(q.Op))
	case QQuantile:
		if !(q.P >= 0 && q.P <= 1) {
			return fmt.Errorf("%w: quantile p must be in [0, 1], got %v", ErrBadQuery, q.P)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown query id %d", ErrBadQuery, int(q.ID))
	}
}

// Check validates q and reports whether a source with (values) or without
// buffered value multisets can answer it: holistic queries over a
// distributive source return ErrUnsupported itself, unwrapped.
func (q Query) Check(values bool) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if q.NeedsValues() && !values {
		return ErrUnsupported
	}
	return nil
}

// As runs q through run — a reader's Run method — and returns the
// result typed; T must be q's result type (see Exec.Run).
func As[T any](run func(Query) (any, error), q Query) (T, error) {
	v, err := run(q)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// NeedsValues reports whether the query consumes value multisets (so its
// source must buffer them).
func (q Query) NeedsValues() bool {
	switch q.ID {
	case QMedianByKey, QQuantile, QMode:
		return true
	}
	return false
}

// String returns the canonical query spelling (the primary /v1/query
// name), with parameters where they disambiguate.
func (q Query) String() string {
	switch q.ID {
	case QCountByKey:
		return "q1"
	case QAvgByKey:
		return "q2"
	case QMedianByKey:
		return "q3"
	case QCount:
		return "q4"
	case QAvg:
		return "q5"
	case QMedian:
		return "q6"
	case QRange:
		return fmt.Sprintf("q7[%d,%d]", q.Lo, q.Hi)
	case QReduce:
		switch q.Op {
		case OpSum:
			return "sum"
		case OpMin:
			return "min"
		case OpMax:
			return "max"
		default:
			return "count"
		}
	case QQuantile:
		return fmt.Sprintf("quantile(%g)", q.P)
	case QMode:
		return "mode"
	default:
		return fmt.Sprintf("Query(%d)", int(q.ID))
	}
}
