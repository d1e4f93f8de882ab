package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"memagg"
)

// Workload batch: the paper's library path, in-process; no serving code
// runs. A seeded job list covers the backends memagg.Recommend picks for
// the paper's query shapes, on a Zipf set and a shuffled-sequential set at
// low (1000) and high (2^20) cardinality. The multithreaded Q1 jobs give
// Recommend EstimatedGroups on either side of the Hash_GLB/Hash_RX
// crossover, which later knob sweeps move.
const (
	batchRows   = 2 << 20
	batchLo     = 1000
	batchHi     = 1 << 20
	batchWarmup = 64 << 10
)

// batchSet is one generated data set with its reference answers, indexed
// by key (keys are dense in 1..card).
type batchSet struct {
	keys, vals []uint64
	card       int
	counts     []uint64  // q1
	medians    []float64 // q3
	keyMedian  float64   // q6
}

type batchJob struct {
	name     string
	workload memagg.Workload
	set      string
	query    string // q1 | q3 | q6 | q7
	agg      *memagg.Aggregator
}

func batchJobs() []*batchJob {
	vec := memagg.Workload{Output: memagg.Vector}
	mt := func(groups int) memagg.Workload {
		return memagg.Workload{Output: memagg.Vector, Multithreaded: true, EstimatedGroups: groups}
	}
	hol := memagg.Workload{Output: memagg.Vector, Function: memagg.Holistic}
	holMT := memagg.Workload{Output: memagg.Vector, Function: memagg.Holistic, Multithreaded: true}
	woro := memagg.Workload{Output: memagg.Scalar, WriteOnceReadOnce: true}
	rng := memagg.Workload{Output: memagg.Vector, RangeCondition: true}
	return []*batchJob{
		{name: "q1_hashlp_lo", workload: vec, set: "zipf_lo", query: "q1"},
		{name: "q1_hashlp_hi", workload: vec, set: "zipf_hi", query: "q1"},
		{name: "q1_glb_lo", workload: mt(batchLo), set: "zipf_lo", query: "q1"},
		{name: "q1_rx_hi", workload: mt(batchHi), set: "zipf_hi", query: "q1"},
		{name: "q3_spreadsort_lo", workload: hol, set: "seq_lo", query: "q3"},
		{name: "q3_spreadsort_hi", workload: hol, set: "seq_hi", query: "q3"},
		{name: "q3_sortbi_lo", workload: holMT, set: "seq_lo", query: "q3"},
		{name: "q3_sortbi_hi", workload: holMT, set: "seq_hi", query: "q3"},
		{name: "q6_spreadsort_lo", workload: woro, set: "zipf_lo", query: "q6"},
		{name: "q6_spreadsort_hi", workload: woro, set: "zipf_hi", query: "q6"},
		{name: "q7_art_lo", workload: rng, set: "seq_lo", query: "q7"},
		{name: "q7_art_hi", workload: rng, set: "seq_hi", query: "q7"},
	}
}

// q7 bounds: the middle half of the key space.
func q7Bounds(card int) (lo, hi uint64) { return uint64(card/4) + 1, uint64(3 * card / 4) }

func newBatchSet(keys, vals []uint64, card int) *batchSet {
	s := &batchSet{keys: keys, vals: vals, card: card, counts: make([]uint64, card+1)}
	for _, k := range keys {
		s.counts[k]++
	}
	// Per-key medians from (key, value) pairs sorted by key, then value.
	idx := make([]int32, len(keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka != kb {
			return ka < kb
		}
		return vals[idx[a]] < vals[idx[b]]
	})
	s.medians = make([]float64, card+1)
	sorted := make([]uint64, 0, 64)
	for i := 0; i < len(idx); {
		k := keys[idx[i]]
		sorted = sorted[:0]
		for ; i < len(idx) && keys[idx[i]] == k; i++ {
			sorted = append(sorted, vals[idx[i]])
		}
		s.medians[k] = refMedian(sorted)
	}
	n := uint64(len(keys))
	at := func(rank uint64) uint64 {
		for k, c := range s.counts {
			if rank < c {
				return uint64(k)
			}
			rank -= c
		}
		return 0
	}
	s.keyMedian = float64(at(n / 2))
	if n%2 == 0 {
		s.keyMedian = (float64(at(n/2-1)) + s.keyMedian) / 2
	}
	return s
}

// run executes one job over rows [0, n) of its set and returns its answer.
func (j *batchJob) run(s *batchSet, n int) (any, error) {
	keys, vals := s.keys[:n], s.vals[:n]
	switch j.query {
	case "q1":
		return j.agg.CountByKey(keys), nil
	case "q3":
		return j.agg.MedianByKey(keys, vals), nil
	case "q6":
		return j.agg.Median(keys)
	}
	lo, hi := q7Bounds(s.card)
	return j.agg.CountRange(keys, lo, hi)
}

// check compares a full-set answer with the reference.
func (j *batchJob) check(s *batchSet, res any) error {
	switch v := res.(type) {
	case []memagg.GroupCount:
		lo, hi := uint64(1), uint64(s.card)
		if j.query == "q7" {
			lo, hi = q7Bounds(s.card)
		}
		want := 0
		for k := lo; k <= hi; k++ {
			if s.counts[k] > 0 {
				want++
			}
		}
		if len(v) != want {
			return fmt.Errorf("%d groups, want %d", len(v), want)
		}
		for _, g := range v {
			if g.Key < lo || g.Key > hi || s.counts[g.Key] != g.Count {
				return fmt.Errorf("group %d count %d, want %d", g.Key, g.Count, s.counts[min(g.Key, uint64(s.card))])
			}
		}
	case []memagg.GroupValue:
		if len(v) != s.card {
			return fmt.Errorf("%d groups, want %d", len(v), s.card)
		}
		for _, g := range v {
			if g.Key < 1 || g.Key > uint64(s.card) || !sameValue(g.Value, s.medians[g.Key]) {
				return fmt.Errorf("group %d median %v", g.Key, g.Value)
			}
		}
	case float64:
		if !sameValue(v, s.keyMedian) {
			return fmt.Errorf("median %v, want %v", v, s.keyMedian)
		}
	default:
		return fmt.Errorf("unexpected answer type %T", res)
	}
	return nil
}

func runBatch(e env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	d := newDigest()
	r := newRNG(e.seed, 6)
	sets := map[string]*batchSet{}
	for _, spec := range []struct {
		name string
		card int
		zipf bool
	}{{"zipf_lo", batchLo, true}, {"zipf_hi", batchHi, true}, {"seq_lo", batchLo, false}, {"seq_hi", batchHi, false}} {
		var keys, vals []uint64
		if spec.zipf {
			keys, vals = zipfRows(batchRows, newZipf(spec.card, zipfExponent, r), r)
		} else {
			keys, vals = seqRows(batchRows, spec.card, r)
		}
		d.add(keys, vals)
		sets[spec.name] = newBatchSet(keys, vals, spec.card)
	}
	jobs := batchJobs()
	o.digest = d.sum()

	// Set-up: build each job's aggregator and run it once on a prefix of
	// its data, so lazy initialization is not measured.
	setup, err := setupRepeated(setupsFast, func(bool) (time.Duration, error) {
		runtime.GC()
		t0 := time.Now()
		for _, j := range jobs {
			var err error
			if j.agg, err = memagg.New(memagg.Recommend(j.workload).Backend, memagg.Options{}); err != nil {
				return 0, err
			}
			if _, err := j.run(sets[j.set], batchWarmup); err != nil {
				return 0, fmt.Errorf("%s warm-up: %w", j.name, err)
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	o.add("setup_s", "s", setup)
	for _, j := range jobs {
		o.note("  job %-18s backend %s", j.name, j.agg.Backend())
	}

	var rec *recorder
	if e.trace {
		rec = newRecorder()
	}
	// Each job runs once per pass until the measured time is used up. A
	// job's time is the median over passes, so one disturbed pass does not
	// move the result; a pass's time is the sum of its jobs' medians.
	times := map[string][]float64{}
	build := map[string][]float64{}
	iterate := map[string][]float64{}
	passes := 0
	deadline := time.Now().Add(e.measure())
	for ; passes == 0 || time.Now().Before(deadline); passes++ {
		root := rec.begin("bench.batch_pass", 0, int64(passes+1))
		for _, j := range jobs {
			s := sets[j.set]
			runtime.GC()
			ph0 := phaseTotals(j.agg)
			sp := rec.begin("agg."+j.name, root.id(), int64(passes+1))
			t0 := time.Now()
			res, err := j.run(s, len(s.keys))
			dt := time.Since(t0)
			sp.end()
			ph1 := phaseTotals(j.agg)
			times[j.name] = append(times[j.name], float64(dt)/1e6)
			build[j.name] = append(build[j.name], (ph1["build"]+ph1["merge"]-ph0["build"]-ph0["merge"])/1e6)
			iterate[j.name] = append(iterate[j.name], (ph1["iterate"]-ph0["iterate"])/1e6)
			o.attempted++
			if err == nil {
				err = j.check(s, res)
			}
			if err != nil {
				o.fail(true, "%s: %v", j.name, err)
			}
		}
		root.end()
	}
	var passMS, rows float64
	for _, j := range jobs {
		passMS += median(times[j.name])
		rows += float64(len(sets[j.set].keys))
	}
	o.add("batch_rows_per_s", "rows/s", rows/(passMS/1e3))
	o.add("batch_pass_ms", "ms", passMS)
	o.note("  passes: %d over %d jobs", passes, len(jobs))
	rss, err := hwmMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	o.add("peak_rss_mb", "MB", rss)
	if e.trace {
		o.spans = rec
		for _, j := range jobs {
			o.layers["agg."+j.name+".build_ms"] = median(build[j.name])
			o.layers["agg."+j.name+".iterate_ms"] = median(iterate[j.name])
			o.layers["agg."+j.name+".job_ms"] = median(times[j.name])
		}
	}
	return o, nil
}

// phaseTotals reads an aggregator's recorded engine phase times, in ns.
func phaseTotals(a *memagg.Aggregator) map[string]float64 {
	out := map[string]float64{}
	for _, p := range a.Stats().Phases {
		out[p.Phase] += float64(p.TotalNanos)
	}
	return out
}
