package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.root", Start: 0, End: 100},
		// Two concurrent children overlapping on [30, 40] cover [10, 60]
		// once; the third is clipped to the parent's end.
		{ID: 2, Parent: 1, Name: "aggserve.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "aggserve.b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "stream.c", Start: 90, End: 120},
		// A grandchild covers half of span 2.
		{ID: 5, Parent: 2, Name: "stream.d", Start: 10, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 60, 2: 30 - 15, 3: 30, 4: 30, 5: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["aggserve"] != ms(45) || layers["stream"] != ms(45) {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestReconcileFlagsUnexplainedTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.ok", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "stream.a", Start: 0, End: 95},
		{ID: 3, Name: "bench.gap", Start: 200, End: 300},
		{ID: 4, Parent: 3, Name: "cluster.b", Start: 200, End: 280},
	}
	rc := reconcile(spans)
	if len(rc) != 2 {
		t.Fatalf("got %d reconciliations, want 2", len(rc))
	}
	if rc[1].Root != "bench.ok" || rc[1].Flagged {
		t.Errorf("5%% unexplained flagged: %+v", rc[1])
	}
	if rc[0].Root != "bench.gap" || !rc[0].Flagged || rc[0].UnexplainedMS != ms(20) {
		t.Errorf("20%% unexplained not flagged: %+v", rc[0])
	}
	if got := rc[0].LayerSelfMS["cluster"]; got != ms(80) {
		t.Errorf("cluster self time = %v, want %v", got, ms(80))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestOpenLoopCountsBacklogInLatency(t *testing.T) {
	// Requests due every 1ms that take 3ms each: a closed loop would hide
	// the backlog, timing from the due time shows it.
	var mu sync.Mutex
	var lat []time.Duration
	start := time.Now()
	openLoop(start, start.Add(20*time.Millisecond), 1, schedule{time.Millisecond, func(i int, due time.Time) {
		time.Sleep(3 * time.Millisecond)
		mu.Lock()
		lat = append(lat, time.Since(due))
		mu.Unlock()
	}})
	if len(lat) != 20 {
		t.Fatalf("%d requests, want 20", len(lat))
	}
	if last := lat[len(lat)-1]; last < 30*time.Millisecond {
		t.Errorf("last request's latency %v hides a 40ms backlog", last)
	}
	var a, b int
	late := openLoop(start, start.Add(20*time.Millisecond), 2,
		schedule{time.Millisecond, func(int, time.Time) { mu.Lock(); a++; mu.Unlock() }},
		schedule{5 * time.Millisecond, func(int, time.Time) { mu.Lock(); b++; mu.Unlock() }})
	if a != 20 || b != 4 || len(late[0]) != 20 || len(late[1]) != 4 {
		t.Errorf("merged schedules ran %d and %d requests, want 20 and 4", a, b)
	}
}

func TestResponseInvariants(t *testing.T) {
	q1 := query{name: "q1"}
	good := response{status: http.StatusOK, etag: `"5"`, body: []byte(`{"query":"q1","watermark":5,"result":[{"Key":1,"Count":2},{"Key":7,"Count":3}]}`)}
	if err := checkResponse(q1, good); err != nil {
		t.Errorf("consistent q1 rejected: %v", err)
	}
	bad := good
	bad.etag = `"6"`
	if checkResponse(q1, bad) == nil {
		t.Error("q1 counts not matching the ETag watermark accepted")
	}
	router := good
	router.etag = `"c2.0.3"`
	if err := checkResponse(q1, router); err != nil {
		t.Errorf("router ETag not summed: %v", err)
	}
	view := query{name: "view", view: "recent"}
	vr := response{status: http.StatusOK, body: []byte(`{"name":"recent","window_start":10,"window_end":15,"rows":5,"value":[{"Key":3,"Count":5}]}`)}
	if err := checkResponse(view, vr); err != nil {
		t.Errorf("consistent view rejected: %v", err)
	}
	vr.body = []byte(`{"name":"recent","window_start":10,"window_end":15,"rows":6,"value":[{"Key":3,"Count":6}]}`)
	if checkResponse(view, vr) == nil {
		t.Error("view rows not matching its window accepted")
	}
}

func TestReferenceAnswers(t *testing.T) {
	ref := newReference(true)
	ref.add([]uint64{1, 2, 1, 3}, []uint64{10, 20, 30, 40}, 2)
	if ref.rows != 8 {
		t.Fatalf("rows = %d, want 8", ref.rows)
	}
	q1 := ref.expect(query{name: "q1"})
	if q1[1] != 4 || q1[2] != 2 || q1[3] != 2 {
		t.Errorf("q1 = %v", q1)
	}
	if q3 := ref.expect(query{name: "q3"}); q3[1] != 20 {
		t.Errorf("median of key 1 = %v, want 20", q3[1])
	}
	// Keys sorted by count: 1 1 1 1 2 2 3 3; ranks 3 and 4 are 1 and 2.
	if m := ref.medianKey(); m != 1.5 {
		t.Errorf("key median = %v, want 1.5", m)
	}
	err := compareRows([]row{{1, 4}, {2, 2}, {3, 3}}, q1)
	if err == nil {
		t.Error("wrong count accepted")
	}
	if !sameValue(1.0/3, 1.0/3+1e-12) || sameValue(1, 1.001) || math.IsNaN(percentile([]float64{1}, 99)) {
		t.Error("comparison helpers")
	}
}

func TestGeneratorIsSeeded(t *testing.T) {
	gen := func(seed uint64) string {
		d := newDigest()
		r := newRNG(seed, 1)
		z := newZipf(1000, zipfExponent, r)
		k, v := zipfRows(5000, z, r)
		d.add(k, v)
		k, v = seqRows(5000, 100, r)
		d.add(k, v)
		return d.sum()
	}
	if gen(1) != gen(1) {
		t.Error("same seed, different inputs")
	}
	if gen(1) == gen(2) {
		t.Error("different seeds, same inputs")
	}
}

func TestBenchmarkJSONMatchesReports(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []entry
	for _, h := range headline {
		e2e = append(e2e, entry{h.name, h.unit})
		for w := range workloads {
			if h.source[w] == "" {
				t.Errorf("%s has no source metric on workload %s", h.name, w)
			}
		}
	}
	for _, lm := range layerMetrics {
		layers = append(layers, entry{lm.name, lm.unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end %v, reported %v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer differs from layerMetrics")
	}
}
