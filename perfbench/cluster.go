package main

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Workload cluster: the only one that exercises the router. Three
// volatile, distributive aggserve nodes behind one aggserve -peers
// router, all separate processes. One producer posts 8Ki chunks through
// the router back to back (closed loop) while q1/q2/sum/q7 reads arrive
// through the router at a low fixed rate. Ring sharding, per-peer
// fan-out, MAGP partial-set encode and decode, and the gather merge run
// only here, and each node's stream does a third of the write work. Set-up
// starts the nodes, then the router, and preloads the chunk pool (1Mi
// rows) through it.
const (
	clusterNodes    = 3
	clusterKeys     = 1 << 12
	clusterPool     = 128
	clusterReadGap  = 100 * time.Millisecond
	clusterMixReads = 4
)

func runCluster(e env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	d := newDigest()
	r := newRNG(e.seed, 4)
	z := newZipf(clusterKeys, zipfExponent, newRNG(0, 4))
	pl := newPool(clusterPool, chunkRows, d, func(n int) ([]uint64, []uint64) { return zipfRows(n, z, r) })
	mixRNG := newRNG(e.seed, 5)
	o.digest = d.sum()

	c := newClient(2)
	defer c.close()
	var nodes []*proc
	var router *proc
	setup, err := setupRepeated(setupsSlow, func(last bool) (time.Duration, error) {
		t0 := time.Now()
		nodes = nodes[:0]
		var urls []string
		for i := 0; i < clusterNodes; i++ {
			n, err := startAggserve(e.aggserve(), e.work, fmt.Sprintf("node%d", i))
			if err != nil {
				return 0, err
			}
			nodes = append(nodes, n)
			urls = append(urls, n.base)
		}
		// Nodes first, then the router: a router that finds a peer not yet
		// ready retries on a 25 ms period, which would make set-up time
		// jump by whole periods from run to run.
		for _, n := range nodes {
			if err := c.waitReady(n.base, 60*time.Second); err != nil {
				return 0, err
			}
		}
		var err error
		if router, err = startAggserve(e.aggserve(), e.work, "router", "-peers", strings.Join(urls, ",")); err != nil {
			return 0, err
		}
		if err := c.waitReady(router.base, 60*time.Second); err != nil {
			return 0, err
		}
		// Preload the pool once through the router, so reads find data
		// from the start and set-up time is dominated by work, not by
		// process start-up jitter.
		for _, body := range pl.bodies {
			if r := c.postChunk(router.base, body); r.status != http.StatusOK {
				return 0, fmt.Errorf("preload: %s", r.describe())
			}
		}
		if r := c.post(router.base, "/v1/flush", nil); r.status != http.StatusOK {
			return 0, fmt.Errorf("preload flush: %s", r.describe())
		}
		dt := time.Since(t0)
		if !last {
			router.kill()
			for _, n := range nodes {
				n.kill()
			}
		}
		return dt, nil
	})
	if err != nil {
		return nil, err
	}
	o.add("setup_s", "s", setup)
	for i := range pl.chunks {
		pl.acked[i].Add(1)
	}
	preloaded := pl.ackedRows()

	var rec *recorder
	var before varsSnap
	if e.trace {
		rec = newRecorder()
		before = scrape(c, router.base)
	}
	var (
		cnt        counter
		acks       ackLog
		ackLat     latencies
		qlat, qrtt latencies
		mu         sync.Mutex
		wg         sync.WaitGroup
	)
	byKind := map[string]latencies{}
	start := time.Now()
	deadline := start.Add(e.measure())
	wg.Add(1)
	go func() {
		defer wg.Done()
		producer(c, router.base, pl, 0, 1, start, deadline, &acks, &ackLat, &cnt, o, &mu, rec)
	}()
	late := openLoop(start, deadline, 1, schedule{clusterReadGap, func(i int, due time.Time) {
		q := clusterRead(mixRNG, i)
		req := rec.begin("bench.read", 0, int64(1<<32+i))
		defer req.end()
		sp := rec.begin("aggserve.query."+q.name, req.id(), int64(1<<32+i))
		t0 := time.Now()
		resp := c.get(router.base, q.path(), "")
		done := time.Now()
		sp.end()
		cnt.record(resp.ok())
		sp = rec.begin("bench.check", req.id(), int64(1<<32+i))
		err := checkResponse(q, resp)
		sp.end()
		mu.Lock()
		defer mu.Unlock()
		if !resp.ok() {
			o.fail(false, "%s: %s", q.label(), resp.describe())
			return
		}
		if err != nil {
			o.fail(true, "%v", err)
		}
		qlat.add(done.Sub(due))
		byKind[q.name] = append(byKind[q.name], float64(done.Sub(due))/1e6)
		qrtt.add(done.Sub(t0))
	}})[0]
	wg.Wait()
	wall := time.Since(start)
	o.attempted += cnt.attempted.Load()
	o.failed += cnt.failed.Load()

	acked := pl.ackedRows() - preloaded
	o.add("ingest_rows_per_s", "rows/s", float64(acked)/wall.Seconds())
	o.addLatency("ingest_ack", ackLat)
	o.addLatency("query", qlat)
	o.add("query_kind_p50_ms", "ms", kindMedian(byKind))
	o.add("gen_late_p99_ms", "ms", percentile(late, 99))

	o.attempted++
	if fr := c.post(router.base, "/v1/flush", nil); fr.status != http.StatusOK {
		o.fail(false, "flush: %s", fr.describe())
	}
	if e.trace {
		after := scrape(c, router.base)
		o.layers["aggserve.ingest_rtt_p50_ms"] = percentile(ackLat, 50)
		o.layers["aggserve.query_rtt_p50_ms"] = percentile(qrtt, 50)
		o.layers["gen.late_p99_ms"] = percentile(late, 99)
		var retries float64
		for k := range after {
			if strings.HasPrefix(k, "cluster_peer_retries_total") {
				retries += delta(before, after, k)
			}
		}
		o.layers["cluster.retries"] = retries
	}
	ref := newReference(false)
	pl.foldInto(ref)
	checkFinal(o, c, router.base, ref, []query{{name: "q1"}, {name: "q2"}, {name: "sum"}, {name: "q7", lo: 1000, hi: 3000}})
	rss, err := peakRSS(append([]*proc{router}, nodes...)...)
	if err != nil {
		return nil, err
	}
	o.add("peak_rss_mb", "MB", rss)
	router.stop(10 * time.Second)
	for _, n := range nodes {
		n.stop(10 * time.Second)
	}

	if e.trace {
		o.spans = rec
		if err := replayCluster(o, pl, rec); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// clusterRead is the i-th read of the cluster mix: q1, q2, sum and a
// narrow q7 in turn, the q7 bounds seeded.
func clusterRead(r *rng, i int) query {
	switch i % clusterMixReads {
	case 0:
		return query{name: "q1"}
	case 1:
		return query{name: "q2"}
	case 2:
		return query{name: "sum"}
	}
	lo := uint64(r.intn(clusterKeys-200)) + 1
	return query{name: "q7", lo: lo, hi: lo + 200}
}
