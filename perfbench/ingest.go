package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Workload ingest: the whole durable write path, little of the read path.
// One durable node (WAL fsync on an interval, default checkpoint cadence)
// with a tumbling sum view and a sliding q1 view. Two producers post fixed
// 8Ki-row chunks back to back (closed loop) over 2^18 Zipf keys, above the
// 64Ki-group crossover, so merges partition and checkpoints carry real
// state. Decode, shard queue, absorb, seal + WAL, view folds, merge and
// checkpoint do nearly all the work. Set-up preloads the first chunks of
// the pool and flushes them, so set-up time is dominated by ingest work
// rather than by the jitter of a ~10 ms process start. The preload stays
// below the 1Mi-row checkpoint cadence: at exactly 1Mi rows the first
// checkpoint raced the end of set-up.
const (
	ingestKeys      = 1 << 18
	ingestPool      = 256 // distinct chunks: 2Mi rows
	ingestPreload   = 120 // chunks posted at set-up: 960Ki rows
	ingestProducers = 2
	pollEvery       = 5 * time.Millisecond
)

func runIngest(e env) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	d := newDigest()
	r := newRNG(e.seed, 1)
	z := newZipf(ingestKeys, zipfExponent, newRNG(0, 1))
	pl := newPool(ingestPool, chunkRows, d, func(n int) ([]uint64, []uint64) { return zipfRows(n, z, r) })
	o.digest = d.sum()

	c := newClient(ingestProducers + 1)
	defer c.close()
	data := filepath.Join(e.work, "data")
	args := []string{"-data-dir", data, "-sync", "interval"}
	var node *proc
	setup, err := setupRepeated(setupsSlow, func(last bool) (time.Duration, error) {
		if err := os.RemoveAll(data); err != nil {
			return 0, err
		}
		t0 := time.Now()
		var err error
		if node, err = startAggserve(e.aggserve(), e.work, "node", args...); err != nil {
			return 0, err
		}
		if err := c.waitReady(node.base, 60*time.Second); err != nil {
			return 0, err
		}
		if err := registerViews(c, node.base, viewTotals, viewRecent); err != nil {
			return 0, err
		}
		for _, b := range pl.bodies[:ingestPreload] {
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
	for i := range pl.chunks[:ingestPreload] {
		pl.acked[i].Store(1)
	}
	preloaded := pl.ackedRows()

	var rec *recorder
	var before varsSnap
	if e.trace {
		rec = newRecorder()
		before = scrape(c, node.base)
	}
	var (
		cnt  counter
		acks ackLog
		lat  latencies
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	acks.add(0, preloaded)
	start := time.Now()
	deadline := start.Add(e.measure())
	for p := 0; p < ingestProducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			producer(c, node.base, pl, p, ingestProducers, start, deadline, &acks, &lat, &cnt, o, &mu, rec)
		}(p)
	}
	stop := make(chan struct{})
	var lag latencies
	var pendingMax int
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		lag, pendingMax = poller(c, node.base, pollEvery, start, stop, preloaded, &acks, &cnt)
	}()
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	<-polled
	o.attempted += cnt.attempted.Load()
	o.failed += cnt.failed.Load()

	acked := pl.ackedRows()
	o.add("ingest_rows_per_s", "rows/s", float64(acked-preloaded)/wall.Seconds())
	o.addLatency("ingest_ack", lat)
	o.addLatency("visible_lag", lag)
	o.note("  acknowledged rows: %d in %.2f s, after %d preloaded", acked-preloaded, wall.Seconds(), preloaded)

	// Everything acknowledged becomes visible at the flush; the answers
	// must then equal the reference exactly.
	o.attempted++
	if fr := c.post(node.base, "/v1/flush", nil); fr.status != http.StatusOK {
		o.fail(false, "flush: %s", fr.describe())
	}
	if e.trace {
		serverLayers(o, before, scrape(c, node.base))
		o.layers["stream.sealed_pending_max"] = float64(pendingMax)
		o.layers["aggserve.ingest_rtt_p50_ms"] = percentile(lat, 50)
		ckpt := dirBytes(filepath.Join(data, "checkpoint"))
		walBytes := delta(before, scrape(c, node.base), "memagg_wal_append_bytes_total")
		if rows := acked - preloaded; rows > 0 {
			// Checkpoint bytes are estimated as checkpoints written times
			// the size of the one on disk; the program counts no total.
			o.layers["wal.write_amp"] = (walBytes + o.layers["wal.checkpoints"]*float64(ckpt)) / (16 * float64(rows))
		}
	}
	ref := newReference(false)
	pl.foldInto(ref)
	checkWatermark(o, c, node.base, acked, "after flush")
	checkFinal(o, c, node.base, ref, []query{{name: "q1"}, {name: "q2"}, {name: "sum"}, {name: "q7", lo: 1000, hi: 9000}, {name: "q6"}})
	checkViews(o, c, node.base, "recent", "totals")
	rss, err := peakRSS(node)
	if err != nil {
		return nil, err
	}
	o.add("peak_rss_mb", "MB", rss)

	// Recovery: kill the node without warning and time the restart on the
	// same data directory until it is ready again.
	node.kill()
	t0 := time.Now()
	node, err = startAggserve(e.aggserve(), e.work, "recovered", args...)
	if err != nil {
		return nil, err
	}
	if err := c.waitReady(node.base, 120*time.Second); err != nil {
		return nil, err
	}
	o.add("recovery_s", "s", time.Since(t0).Seconds())
	checkWatermark(o, c, node.base, acked, "after recovery")
	checkFinal(o, c, node.base, ref, []query{{name: "q1"}})
	node.stop(10 * time.Second)

	if e.trace {
		o.spans = rec
		if err := replayIngest(o, e, pl, rec); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkWatermark checks that a node shows exactly the acknowledged rows.
func checkWatermark(o *outcome, c *client, base string, want uint64, when string) {
	o.attempted++
	var st nodeStats
	if err := c.getJSON(base, "/v1/stats", &st); err != nil {
		o.fail(false, "stats %s: %v", when, err)
		return
	}
	if st.Watermark != want {
		o.fail(true, "watermark %s = %d, want the %d acknowledged rows", when, st.Watermark, want)
	}
}
