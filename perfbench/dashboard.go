package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Workload dashboard: the read path, with writes beside it. One volatile
// holistic node, preloaded with 2Mi rows over 10,000 Zipf groups: above
// the 8Ki-group serial query cutoff, so the parallel kernels run, and
// below the 64Ki crossover. Reads arrive open loop at a fixed rate,
// cycling a seeded mix of q1, q2, q3, quantile p=0.99, a narrow q7, sum
// and a view result; a share of them revalidates with If-None-Match. A
// trickle writer posts 8Ki chunks on a fixed schedule, so seals
// invalidate the result cache about once a second. Snapshot fold, scan
// kernels, the result cache, ETag/304, JSON encoding and view reads do
// the work. The sizes and rates keep each worker busy for about a quarter
// of the run: near saturation the median measures the queue, not the
// reads.
const (
	dashKeys         = 10_000
	dashPreload      = 256 // chunks: 2Mi rows
	dashTricklePool  = 64
	dashTrickleEvery = 200 * time.Millisecond
	dashReadEvery    = 20 * time.Millisecond
	dashRevalidate   = 10 // every 10th read revalidates with If-None-Match
)

func runDashboard(e env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	d := newDigest()
	r := newRNG(e.seed, 2)
	z := newZipf(dashKeys, zipfExponent, newRNG(0, 2))
	gen := func(n int) ([]uint64, []uint64) { return zipfRows(n, z, r) }
	preload := newPool(dashPreload, chunkRows, d, gen)
	trickle := newPool(dashTricklePool, chunkRows, d, gen)
	mix := dashboardMix(newRNG(e.seed, 3), 4096)
	o.digest = d.sum()

	c := newClient(2)
	defer c.close()
	var node *proc
	setup, err := setupRepeated(setupsSlow, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		var err error
		if node, err = startAggserve(e.aggserve(), e.work, "node", "-holistic"); err != nil {
			return 0, err
		}
		if err := c.waitReady(node.base, 60*time.Second); err != nil {
			return 0, err
		}
		if err := registerViews(c, node.base, viewRecent); err != nil {
			return 0, err
		}
		for _, b := range preload.bodies {
			if r := c.postChunk(node.base, b); r.status != http.StatusOK {
				return 0, fmt.Errorf("preload: %s", r.describe())
			}
		}
		if r := c.post(node.base, "/v1/flush", nil); r.status != http.StatusOK {
			return 0, fmt.Errorf("preload flush: %s", r.describe())
		}
		dt := time.Since(t0)
		if !last {
			node.kill()
		}
		return dt, nil
	})
	if err != nil {
		return nil, err
	}
	o.add("setup_s", "s", setup)
	for i := range preload.chunks {
		preload.acked[i].Store(1)
	}

	var rec *recorder
	var before varsSnap
	if e.trace {
		rec = newRecorder()
		before = scrape(c, node.base)
	}
	var (
		cnt                counter
		mu                 sync.Mutex
		qlat, ack, viewLat latencies
		qrtt, irtt         latencies
		notModified, reads int
	)
	etags := map[string]string{}
	byKind := map[string]latencies{}
	start := time.Now()
	deadline := start.Add(e.measure())
	trickleWrite := func(i int, due time.Time) {
		k := i % len(trickle.bodies)
		req := rec.begin("bench.trickle", 0, int64(1<<32+i))
		defer req.end()
		sp := rec.begin("aggserve.ingest", req.id(), int64(1<<32+i))
		t0 := time.Now()
		resp := c.postChunk(node.base, trickle.bodies[k])
		done := time.Now()
		sp.end()
		cnt.record(resp.ok())
		mu.Lock()
		defer mu.Unlock()
		if !resp.ok() {
			o.fail(false, "trickle ingest: %s", resp.describe())
			return
		}
		trickle.acked[k].Add(1)
		ack.add(done.Sub(due))
		irtt.add(done.Sub(t0))
	}
	read := func(i int, due time.Time) {
		q := mix[i%len(mix)]
		path := q.path()
		inm := ""
		if i%dashRevalidate == 0 {
			mu.Lock()
			inm = etags[path]
			mu.Unlock()
		}
		req := rec.begin("bench.read", 0, int64(i+1))
		defer req.end()
		sp := rec.begin("aggserve.query."+q.name, req.id(), int64(i+1))
		t0 := time.Now()
		resp := c.get(node.base, path, inm)
		done := time.Now()
		sp.end()
		cnt.record(resp.ok())
		sp = rec.begin("bench.check", req.id(), int64(i+1))
		err := checkResponse(q, resp)
		sp.end()
		mu.Lock()
		defer mu.Unlock()
		reads++
		if !resp.ok() {
			o.fail(false, "%s: %s", q.label(), resp.describe())
			return
		}
		if err != nil {
			o.fail(true, "%v", err)
		}
		if resp.status == http.StatusNotModified {
			notModified++
		}
		if resp.etag != "" {
			etags[path] = resp.etag
		}
		qlat.add(done.Sub(due))
		byKind[q.name] = append(byKind[q.name], float64(done.Sub(due))/1e6)
		if q.name == "view" {
			viewLat.add(done.Sub(t0))
		} else if resp.status == http.StatusOK {
			qrtt.add(done.Sub(t0))
			o.layers["aggserve.resp_bytes"] += float64(len(resp.body))
		}
	}
	// Reads and trickle writes share one queue served by two workers, the
	// client's whole allowance of request goroutines.
	late := openLoop(start, deadline, 2, schedule{dashReadEvery, read}, schedule{dashTrickleEvery, trickleWrite})[0]
	wall := time.Since(start)
	o.attempted += cnt.attempted.Load()
	o.failed += cnt.failed.Load()

	o.add("ingest_rows_per_s", "rows/s", float64(trickle.ackedRows())/wall.Seconds())
	o.addLatency("query", qlat)
	o.add("query_kind_p50_ms", "ms", kindMedian(byKind))
	o.addLatency("ingest_ack", ack)
	o.add("gen_late_p99_ms", "ms", percentile(late, 99))
	o.note("  reads: %d, of which %d answered 304", reads, notModified)

	o.attempted++
	if fr := c.post(node.base, "/v1/flush", nil); fr.status != http.StatusOK {
		o.fail(false, "flush: %s", fr.describe())
	}
	if e.trace {
		serverLayers(o, before, scrape(c, node.base))
		o.layers["aggserve.query_rtt_p50_ms"] = percentile(qrtt, 50)
		o.layers["aggserve.view_rtt_p50_ms"] = percentile(viewLat, 50)
		o.layers["aggserve.ingest_rtt_p50_ms"] = percentile(irtt, 50)
		if n := len(qrtt); n > 0 {
			o.layers["aggserve.resp_bytes"] /= float64(n)
		}
		if reads > 0 {
			o.layers["aggserve.not_modified_ratio"] = float64(notModified) / float64(reads)
		}
		o.layers["gen.late_p99_ms"] = percentile(late, 99)
	}
	ref := newReference(true)
	preload.foldInto(ref)
	trickle.foldInto(ref)
	checkWatermark(o, c, node.base, ref.rows, "after flush")
	checkFinal(o, c, node.base, ref, []query{{name: "q1"}, {name: "q2"}, {name: "q3"}, {name: "quantile", p: 0.99},
		{name: "sum"}, {name: "q7", lo: dashKeys / 2, hi: dashKeys/2 + 500}, {name: "q6"}})
	checkViews(o, c, node.base, "recent")
	rss, err := peakRSS(node)
	if err != nil {
		return nil, err
	}
	o.add("peak_rss_mb", "MB", rss)
	node.stop(10 * time.Second)

	if e.trace {
		o.spans = rec
		if err := replayDashboard(o, e, preload, trickle, mix, rec); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// dashboardMix is the seeded read sequence the dashboard cycles through:
// blocks of the seven read kinds, each block in its own seeded order, so
// every run reads the same mix of kinds; narrow q7 ranges draw their own
// bounds.
func dashboardMix(r *rng, n int) []query {
	kinds := []query{{name: "q1"}, {name: "q2"}, {name: "q3"}, {name: "quantile", p: 0.99},
		{name: "q7"}, {name: "sum"}, {name: "view", view: "recent"}}
	mix := make([]query, 0, n)
	for len(mix) < n {
		block := append([]query(nil), kinds...)
		for i := len(block) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			block[i], block[j] = block[j], block[i]
		}
		for _, q := range block {
			if q.name == "q7" {
				q.lo = uint64(r.intn(dashKeys-500)) + 1
				q.hi = q.lo + 500
			}
			mix = append(mix, q)
		}
	}
	return mix[:n]
}
