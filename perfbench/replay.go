package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/cluster"
	"memagg/internal/stream"
)

// The second half of a traced run replays the workload's generated
// requests in-process, through the public functions of each layer, with
// a span around every call. Comparing a request's round trip in the first
// half with the sum of its calls here gives the HTTP tax.

// serveOptions are the stream options aggserve derives for a node.
func serveOptions(holistic bool) memagg.StreamOptions {
	return memagg.StreamOptions{
		Workload: memagg.Workload{Output: memagg.Vector, Multithreaded: true},
		Holistic: holistic,
	}
}

// codec times the MAGC wire codec on every pool chunk and returns the
// decoded chunks, which own their columns.
func codec(o *outcome, pl *pool, rec *recorder, root int64) []memagg.Chunk {
	var enc, dec time.Duration
	var rows int
	out := make([]memagg.Chunk, len(pl.chunks))
	var buf []byte
	for i, c := range pl.chunks {
		sp := rec.begin("agg.chunk_encode", root, int64(i+1))
		t0 := time.Now()
		buf = memagg.AppendChunkWire(buf[:0], c)
		enc += time.Since(t0)
		sp.end()
		sp = rec.begin("agg.chunk_decode", root, int64(i+1))
		t0 = time.Now()
		dc, _, err := memagg.DecodeChunkWire(pl.bodies[i])
		dec += time.Since(t0)
		sp.end()
		if err != nil {
			o.fail(true, "replay decode chunk %d: %v", i, err)
		}
		out[i] = dc
		rows += c.Rows()
	}
	o.layers["agg.chunk_encode_ns_per_row"] = float64(enc.Nanoseconds()) / float64(rows)
	o.layers["agg.chunk_decode_ns_per_row"] = float64(dec.Nanoseconds()) / float64(rows)
	return out
}

// decodeOwned decodes a wire body into a chunk that owns its columns, as
// the server does for every request.
func decodeOwned(body []byte) memagg.Chunk {
	c, _, _ := memagg.DecodeChunkWire(body) // the bodies were encoded by this process
	return c
}

func replayIngest(o *outcome, e env, pl *pool, rec *recorder) error {
	root := rec.begin("bench.replay_ingest", 0, 0)
	defer root.end()
	codec(o, pl, rec, root.id())
	opts := serveOptions(false)
	opts.Durability = memagg.StreamDurability{Dir: filepath.Join(e.work, "replay"), SyncPolicy: "interval"}
	sp := rec.begin("stream.open", root.id(), 0)
	s, err := memagg.OpenStream(opts)
	sp.end()
	if err != nil {
		return err
	}
	if err := registerTimed(s, rec, root.id(),
		memagg.ViewSpec{Name: "totals", Query: "sum", PaneRows: 1 << 20, Panes: 4},
		memagg.ViewSpec{Name: "recent", Query: "q1", PaneRows: 1 << 16, Panes: 8, Sliding: true}); err != nil {
		return err
	}
	var appendLat latencies
	var decode time.Duration
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for i, b := range pl.bodies {
			req := int64(r*len(pl.bodies) + i + 1)
			sp := rec.begin("agg.chunk_decode", root.id(), req)
			t0 := time.Now()
			c := decodeOwned(b)
			decode += time.Since(t0)
			sp.end()
			sp = rec.begin("stream.append", root.id(), req)
			t0 = time.Now()
			err := s.AppendOwnedChunk(c)
			appendLat.add(time.Since(t0))
			sp.end()
			if err != nil {
				return fmt.Errorf("replay append: %w", err)
			}
		}
	}
	t0 := time.Now()
	if err := flushTimed(s, rec, root.id()); err != nil {
		return err
	}
	o.layers["stream.flush_ms"] = float64(time.Since(t0)) / 1e6
	p50, p99, _, _ := appendLat.tail()
	o.layers["stream.append_p50_ms"] = p50
	o.layers["stream.append_p99_ms"] = p99
	readViews(o, s, rec, root.id(), "recent", "totals")
	if err := replayReads(o, s, []query{{name: "q1"}}, nil, rec, root.id()); err != nil {
		return err
	}
	perChunk := float64(decode)/1e6/float64(rounds*len(pl.bodies)) + p50
	o.layers["aggserve.http_tax_ms"] = o.layers["aggserve.ingest_rtt_p50_ms"] - perChunk
	return closeTimed(s, rec, root.id())
}

func registerTimed(s *memagg.Stream, rec *recorder, parent int64, views ...memagg.ViewSpec) error {
	sp := rec.begin("cview.register", parent, 0)
	defer sp.end()
	for _, v := range views {
		if err := s.RegisterView(v); err != nil {
			return err
		}
	}
	return nil
}

func flushTimed(s *memagg.Stream, rec *recorder, parent int64) error {
	sp := rec.begin("stream.flush", parent, 0)
	defer sp.end()
	return s.Flush()
}

func closeTimed(s *memagg.Stream, rec *recorder, parent int64) error {
	sp := rec.begin("stream.close", parent, 0)
	defer sp.end()
	return s.Close()
}

func replayDashboard(o *outcome, e env, preload, trickle *pool, mix []query, rec *recorder) error {
	root := rec.begin("bench.replay_dashboard", 0, 0)
	defer root.end()
	codec(o, trickle, rec, root.id())
	sp := rec.begin("stream.open", root.id(), 0)
	s := memagg.NewStream(serveOptions(true))
	sp.end()
	if err := registerTimed(s, rec, root.id(),
		memagg.ViewSpec{Name: "recent", Query: "q1", PaneRows: 1 << 16, Panes: 8, Sliding: true}); err != nil {
		return err
	}
	for i, b := range preload.bodies {
		if err := appendTimed(s, decodeOwned(b), rec, root.id(), int64(i+1)); err != nil {
			return err
		}
	}
	if err := flushTimed(s, rec, root.id()); err != nil {
		return err
	}
	// Replay the read mix at the measured phase's cadence: one trickle
	// chunk per dashReadEvery/dashTrickleEvery reads.
	every := int(dashTrickleEvery / dashReadEvery)
	next := 0
	write := func(i int) error {
		if i%every != 0 {
			return nil
		}
		k := next % len(trickle.bodies)
		next++
		return appendTimed(s, decodeOwned(trickle.bodies[k]), rec, root.id(), int64(1<<32+i))
	}
	if err := replayReads(o, s, mix[:min(len(mix), 300)], write, rec, root.id()); err != nil {
		return err
	}
	return closeTimed(s, rec, root.id())
}

func appendTimed(s *memagg.Stream, c memagg.Chunk, rec *recorder, parent, req int64) error {
	sp := rec.begin("stream.append", parent, req)
	err := s.AppendOwnedChunk(c)
	sp.end()
	return err
}

// replayReads runs each read through Snapshot, the snapshot query and the
// JSON encoding, classifying each query by what the stream's result
// cache did: cold (first query after new rows became visible: the fold
// runs), warm (fold already done, result computed) or cached (answered
// from the result cache).
func replayReads(o *outcome, s *memagg.Stream, reads []query, before func(int) error, rec *recorder, root int64) error {
	var snapUS, cold, warm, cachedUS, encMS, inproc, viewUS latencies
	lastWM := ^uint64(0)
	for i, q := range reads {
		if before != nil {
			if err := before(i); err != nil {
				return err
			}
		}
		req := int64(i + 1)
		if q.name == "view" {
			sp := rec.begin("cview.read", root, req)
			t0 := time.Now()
			_, err := s.View(q.view)
			viewUS.add(time.Since(t0) * 1000)
			sp.end()
			if err != nil {
				return err
			}
			continue
		}
		sp := rec.begin("stream.snapshot", root, req)
		t0 := time.Now()
		sn := s.Snapshot()
		dSnap := time.Since(t0)
		sp.end()
		st0 := s.Stats()
		sp = rec.begin("stream.query."+q.name, root, req)
		t1 := time.Now()
		res, err := snapshotQuery(sn, q)
		dq := time.Since(t1)
		sp.end()
		if err != nil {
			return fmt.Errorf("replay %s: %w", q.label(), err)
		}
		st1 := s.Stats()
		sp = rec.begin("aggserve.encode", root, req)
		t2 := time.Now()
		_, err = json.Marshal(res)
		dEnc := time.Since(t2)
		sp.end()
		if err != nil {
			return err
		}
		snapUS.add(dSnap * 1000)
		switch {
		case st1.QueryCacheHits > st0.QueryCacheHits:
			cachedUS.add(dq * 1000)
		case sn.Watermark() != lastWM:
			cold.add(dq)
		default:
			warm.add(dq)
		}
		lastWM = sn.Watermark()
		encMS.add(dEnc)
		inproc.add(dSnap + dq + dEnc)
	}
	set := func(name string, l latencies) {
		if len(l) > 0 {
			o.layers[name] = percentile(l, 50)
		}
	}
	set("stream.snapshot_us", snapUS)
	set("stream.query_cold_ms", cold)
	set("stream.query_warm_ms", warm)
	set("stream.query_cached_us", cachedUS)
	set("aggserve.encode_ms", encMS)
	set("cview.read_us", viewUS)
	if rtt, ok := o.layers["aggserve.query_rtt_p50_ms"]; ok && len(inproc) > 0 {
		o.layers["aggserve.http_tax_ms"] = rtt - percentile(inproc, 50)
	}
	return nil
}

// readViews reads each view twice: the first read merges panes, the
// second is answered from the view's version cache.
func readViews(o *outcome, s *memagg.Stream, rec *recorder, root int64, names ...string) {
	var us latencies
	for _, n := range names {
		for k := 0; k < 2; k++ {
			sp := rec.begin("cview.read", root, 0)
			t0 := time.Now()
			_, err := s.View(n)
			us.add(time.Since(t0) * 1000)
			sp.end()
			if err != nil {
				o.fail(true, "replay view %s: %v", n, err)
			}
		}
	}
	o.layers["cview.read_us"] = percentile(us, 50)
}

func snapshotQuery(sn *memagg.StreamSnapshot, q query) (any, error) {
	switch q.name {
	case "q1":
		return sn.CountByKey(), nil
	case "q2":
		return sn.AvgByKey(), nil
	case "q3":
		return sn.MedianByKey()
	case "quantile":
		return sn.QuantileByKey(q.p)
	case "q7":
		return sn.CountRange(q.lo, q.hi)
	case "sum":
		return sn.SumByKey(), nil
	}
	return nil, fmt.Errorf("no replay for %s", q.name)
}

// timingTransport records every peer request's round trip.
type timingTransport struct {
	mu  sync.Mutex
	rtt latencies
}

func (t *timingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(r)
	t.mu.Lock()
	t.rtt.add(time.Since(t0))
	t.mu.Unlock()
	return resp, err
}

func replayCluster(o *outcome, pl *pool, rec *recorder) error {
	ref := newReference(false)
	for _, c := range pl.chunks {
		ref.add(c.Keys, c.Vals, 1)
	}
	want := ref.expect(query{name: "q1"})
	root := rec.begin("bench.replay_cluster", 0, 0)
	defer root.end()
	chunks := codec(o, pl, rec, root.id())
	var urls []string
	var streams []*stream.Stream
	sp := rec.begin("cluster.start_nodes", root.id(), 0)
	for i := 0; i < clusterNodes; i++ {
		s := stream.New(stream.Config{})
		srv := httptest.NewServer(cluster.NodeHandler(s))
		defer srv.Close()
		defer s.Close()
		streams = append(streams, s)
		urls = append(urls, srv.URL)
	}
	sp.end()
	tt := &timingTransport{}
	rt, err := cluster.NewRouter(cluster.Config{Peers: urls, Client: &http.Client{Transport: tt, Timeout: 60 * time.Second}})
	if err != nil {
		return err
	}
	var ingest latencies
	for i, c := range chunks {
		sp := rec.begin("cluster.ingest_chunk", root.id(), int64(i+1))
		t0 := time.Now()
		err := rt.IngestChunk(agg.Chunk(c))
		ingest.add(time.Since(t0))
		sp.end()
		if err != nil {
			return fmt.Errorf("replay router ingest: %w", err)
		}
	}
	sp = rec.begin("cluster.flush", root.id(), 0)
	err = rt.Flush()
	sp.end()
	if err != nil {
		return err
	}
	var gather, merge latencies
	const gathers = 10
	for g := 0; g < gathers; g++ {
		sp := rec.begin("cluster.gather", root.id(), int64(g+1))
		t0 := time.Now()
		m, err := rt.Gather()
		gather.add(time.Since(t0))
		sp.end()
		if err != nil {
			return fmt.Errorf("replay gather: %w", err)
		}
		sp = rec.begin("cluster.merge", root.id(), int64(g+1))
		t0 = time.Now()
		q1 := m.CountByKey()
		m.AvgByKey()
		m.Reduce(agg.OpSum)
		_, err = m.CountRange(1000, 3000)
		merge.add(time.Since(t0))
		sp.end()
		sp = rec.begin("bench.check", root.id(), int64(g+1))
		o.attempted++
		rows := make([]row, len(q1))
		for i, g := range q1 {
			rows[i] = row{Key: g.Key, Value: float64(g.Count)}
		}
		if err == nil {
			err = compareRows(rows, want)
		}
		if err != nil {
			o.fail(true, "replay cluster q1: %v", err)
		}
		sp.end()
	}
	var partials int
	for _, s := range streams {
		partials += len(cluster.EncodeSnapshot(nil, s.Snapshot()))
	}
	p50, p99, _, _ := ingest.tail()
	o.layers["cluster.ingest_chunk_p50_ms"] = p50
	o.layers["cluster.ingest_chunk_p99_ms"] = p99
	o.layers["cluster.gather_ms"] = percentile(gather, 50)
	o.layers["cluster.merge_ms"] = percentile(merge, 50)
	o.layers["cluster.partials_bytes"] = float64(partials)
	tt.mu.Lock()
	o.layers["cluster.peer_rtt_p50_ms"] = percentile(tt.rtt, 50)
	tt.mu.Unlock()
	return nil
}
