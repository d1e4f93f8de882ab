package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Shared machinery of the three workloads that drive aggserve processes.

// chunkRows is the fixed ingest chunk size of every serving workload: a
// mix of sizes made the ack median jump between size classes.
const chunkRows = 8 << 10

// setupRepeated runs boot rounds times and returns the median duration.
// boot tears down what it built unless it is the last round, which the
// run goes on to measure.
func setupRepeated(rounds int, boot func(last bool) (time.Duration, error)) (float64, error) {
	var d []float64
	for i := 0; i < rounds; i++ {
		t, err := boot(i == rounds-1)
		if err != nil {
			return 0, err
		}
		d = append(d, t.Seconds())
	}
	return median(d), nil
}

// counter counts attempted and failed operations from many goroutines.
type counter struct{ attempted, failed atomic.Int64 }

func (c *counter) record(ok bool) {
	c.attempted.Add(1)
	if !ok {
		c.failed.Add(1)
	}
}

// ackLog is the timeline of acknowledged rows: when the cumulative count
// of acknowledged rows reached each value. Visibility lag is read off it.
type ackLog struct {
	mu  sync.Mutex
	at  []time.Duration // since the measured phase started
	cum []uint64
}

func (a *ackLog) add(at time.Duration, rows uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var prev uint64
	if n := len(a.cum); n > 0 {
		prev = a.cum[n-1]
	}
	a.at = append(a.at, at)
	a.cum = append(a.cum, prev+rows)
}

// reached returns when the acknowledged count first reached w.
func (a *ackLog) reached(w uint64) (time.Duration, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.cum), func(i int) bool { return a.cum[i] >= w })
	if i == len(a.cum) {
		return 0, false
	}
	return a.at[i], true
}

// producer posts pool chunks back to back (closed loop) until the
// deadline: producer p of n sends chunks p, p+n, p+2n, ... of the pool.
func producer(c *client, base string, pl *pool, p, n int, start, deadline time.Time,
	acks *ackLog, lat *latencies, cnt *counter, o *outcome, mu *sync.Mutex, rec *recorder) {
	for k := p; time.Now().Before(deadline); k += n {
		i := k % len(pl.bodies)
		req := rec.begin("bench.ingest_request", 0, int64(k+1))
		sp := rec.begin("aggserve.ingest", req.id(), int64(k+1))
		t0 := time.Now()
		r := c.postChunk(base, pl.bodies[i])
		d := time.Since(t0)
		sp.end()
		cnt.record(r.ok())
		if r.ok() {
			pl.acked[i].Add(1)
			acks.add(time.Since(start), uint64(pl.chunks[i].Rows()))
		}
		mu.Lock()
		if r.ok() {
			lat.add(d)
		} else {
			o.fail(false, "ingest: %s", r.describe())
		}
		mu.Unlock()
		req.end()
	}
}

// nodeStats is the part of /v1/stats the benchmark reads.
type nodeStats struct {
	Watermark     uint64
	SealedPending int
}

// poller samples a node's /v1/stats at a fixed rate and turns each
// sample into a time-to-queryable: the sample time minus the time the
// acknowledged-row count first reached the watermark it shows. Samples
// that show no row beyond the preloaded ones are skipped.
func poller(c *client, base string, every time.Duration, start time.Time, stop <-chan struct{},
	preloaded uint64, acks *ackLog, cnt *counter) (lag latencies, pendingMax int) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return lag, pendingMax
		case <-tick.C:
		}
		var st nodeStats
		err := c.getJSON(base, "/v1/stats", &st)
		cnt.record(err == nil)
		if err != nil {
			continue
		}
		now := time.Since(start)
		pendingMax = max(pendingMax, st.SealedPending)
		if st.Watermark <= preloaded {
			continue
		}
		if at, ok := acks.reached(st.Watermark); ok {
			lag.add(max(0, now-at))
		} else {
			// Visible before its acknowledgement arrived.
			lag.add(0)
		}
	}
}

// checkFinal compares the final answer of every query with the reference
// and records each comparison as one operation.
func checkFinal(o *outcome, c *client, base string, ref *reference, qs []query) {
	for _, q := range qs {
		o.attempted++
		r := c.get(base, q.path(), "")
		if r.status != http.StatusOK {
			o.fail(true, "final %s: %s", q.label(), r.describe())
			continue
		}
		if q.name == "q6" {
			var v struct{ Result float64 }
			if err := json.Unmarshal(r.body, &v); err != nil {
				o.fail(true, "final q6: %v", err)
			} else if want := ref.medianKey(); !sameValue(v.Result, want) {
				o.fail(true, "final q6 = %v, want %v", v.Result, want)
			}
			continue
		}
		got, err := vectorResult(r.body)
		if err == nil {
			err = compareRows(got, ref.expect(q))
		}
		if err != nil {
			o.fail(true, "final %s: %v", q.label(), err)
		}
	}
}

// view definitions registered by the ingest and dashboard workloads.
var (
	viewRecent = map[string]any{"name": "recent", "query": "q1", "pane_rows": 1 << 16, "panes": 8, "sliding": true}
	viewTotals = map[string]any{"name": "totals", "query": "sum", "pane_rows": 1 << 20, "panes": 4}
)

func registerViews(c *client, base string, views ...map[string]any) error {
	for _, v := range views {
		if r := c.post(base, "/v1/views", v); r.status != http.StatusCreated {
			return fmt.Errorf("register view %v: %s", v["name"], r.describe())
		}
	}
	return nil
}

// checkViews reads every view once and applies the response invariants.
func checkViews(o *outcome, c *client, base string, names ...string) {
	for _, n := range names {
		o.attempted++
		q := query{name: "view", view: n}
		r := c.get(base, q.path(), "")
		if r.status != http.StatusOK {
			o.fail(false, "view %s: %s", n, r.describe())
			continue
		}
		if err := checkResponse(q, r); err != nil {
			o.fail(true, "%v", err)
		}
	}
}

// varsSnap is one scrape of a node's /v1/debug/vars.
type varsSnap map[string]json.RawMessage

// num reads a counter or gauge, or a histogram's sum in ns.
func (v varsSnap) num(key string) float64 {
	raw, ok := v[key]
	if !ok {
		return 0
	}
	var f float64
	if json.Unmarshal(raw, &f) == nil {
		return f
	}
	var h struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum_ns"`
	}
	if json.Unmarshal(raw, &h) == nil {
		return h.Sum
	}
	return 0
}

func scrape(c *client, base string) varsSnap {
	m, err := c.vars(base)
	if err != nil {
		return varsSnap{}
	}
	return m
}

func delta(before, after varsSnap, key string) float64 { return after.num(key) - before.num(key) }

// serverLayers turns the counters and busy times a node records into the
// per-layer metrics of the measured phase.
func serverLayers(o *outcome, before, after varsSnap) {
	d := func(k string) float64 { return delta(before, after, k) }
	o.layers["stream.blocked_ms"] = d("memagg_stream_append_blocked_nanos_total") / 1e6
	o.layers["stream.seals"] = d("memagg_stream_seals_total")
	o.layers["stream.merges"] = d("memagg_stream_merges_total")
	o.layers["stream.merge_busy_ms"] = d("memagg_stream_merge_nanos_total") / 1e6
	hits, misses := d("memagg_stream_query_cache_hits_total"), d("memagg_stream_query_cache_misses_total")
	if hits+misses > 0 {
		o.layers["stream.cache_hit_ratio"] = hits / (hits + misses)
	}
	o.layers["wal.appends"] = d("memagg_wal_appends_total")
	o.layers["wal.fsyncs"] = d("memagg_wal_fsyncs_total")
	o.layers["wal.fsync_ms"] = d("memagg_wal_fsync_seconds") / 1e6
	o.layers["wal.checkpoints"] = d("memagg_wal_checkpoints_total")
	o.layers["wal.checkpoint_ms"] = d("memagg_wal_checkpoint_seconds") / 1e6
	o.layers["cview.updates"] = d("memagg_cview_updates_total")
	o.layers["cview.update_ms"] = d("memagg_cview_update_seconds") / 1e6
	reads, cached := d("memagg_cview_reads_total"), d("memagg_cview_reads_cached_total")
	if reads > 0 {
		o.layers["cview.cached_read_ratio"] = cached / reads
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// kindMedian is the mean over read kinds of each kind's median latency.
// The reads of one kind cost about the same, while the kinds differ by
// several times; the median of the whole mix falls on the boundary
// between two kinds' costs and moves with small shifts in either, this
// does not.
func kindMedian(byKind map[string]latencies) float64 {
	if len(byKind) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, l := range byKind {
		sum += percentile(l, 50)
	}
	return sum / float64(len(byKind))
}
