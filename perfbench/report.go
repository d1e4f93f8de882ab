package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// layerMetric is one per-layer metric of BENCHMARK.json. Every traced run
// reports all of them; a layer the workload does not exercise reads 0.
type layerMetric struct{ name, unit string }

var layerMetrics = func() []layerMetric {
	m := []layerMetric{
		{"aggserve.ingest_rtt_p50_ms", "ms"},
		{"aggserve.query_rtt_p50_ms", "ms"},
		{"aggserve.view_rtt_p50_ms", "ms"},
		{"aggserve.http_tax_ms", "ms"},
		{"aggserve.encode_ms", "ms"},
		{"aggserve.resp_bytes", "bytes"},
		{"aggserve.not_modified_ratio", "ratio"},
		{"agg.chunk_decode_ns_per_row", "ns"},
		{"agg.chunk_encode_ns_per_row", "ns"},
		{"stream.append_p50_ms", "ms"},
		{"stream.append_p99_ms", "ms"},
		{"stream.blocked_ms", "ms"},
		{"stream.flush_ms", "ms"},
		{"stream.seals", "count"},
		{"stream.merges", "count"},
		{"stream.merge_busy_ms", "ms"},
		{"stream.sealed_pending_max", "count"},
		{"stream.snapshot_us", "us"},
		{"stream.query_cold_ms", "ms"},
		{"stream.query_warm_ms", "ms"},
		{"stream.query_cached_us", "us"},
		{"stream.cache_hit_ratio", "ratio"},
		{"wal.appends", "count"},
		{"wal.fsyncs", "count"},
		{"wal.fsync_ms", "ms"},
		{"wal.checkpoints", "count"},
		{"wal.checkpoint_ms", "ms"},
		{"wal.write_amp", "ratio"},
		{"cview.updates", "count"},
		{"cview.update_ms", "ms"},
		{"cview.read_us", "us"},
		{"cview.cached_read_ratio", "ratio"},
		{"cluster.ingest_chunk_p50_ms", "ms"},
		{"cluster.ingest_chunk_p99_ms", "ms"},
		{"cluster.peer_rtt_p50_ms", "ms"},
		{"cluster.retries", "count"},
		{"cluster.gather_ms", "ms"},
		{"cluster.merge_ms", "ms"},
		{"cluster.partials_bytes", "bytes"},
	}
	for _, j := range batchJobs() {
		m = append(m, layerMetric{"agg." + j.name + ".job_ms", "ms"},
			layerMetric{"agg." + j.name + ".build_ms", "ms"}, layerMetric{"agg." + j.name + ".iterate_ms", "ms"})
	}
	for _, l := range traceLayers {
		m = append(m, layerMetric{l + ".self_ms", "ms"})
	}
	return append(m,
		layerMetric{"gen.late_p99_ms", "ms"},
		layerMetric{"trace.unexplained_pct", "%"},
	)
}()

// traceLayers are the modules spans are attributed to. The wal has none:
// its work runs inside stream calls, and its counts and busy times come
// from the node's own instruments.
var traceLayers = []string{"aggserve", "agg", "stream", "cview", "cluster"}

// traceReport writes the spans, prints the per-layer metrics and the
// reconciliation of layer self times against wall time, and fills the
// self-time metrics. Tracing overhead is measured, not estimated, by
// repeat mode's --compare-trace.
func traceReport(name string, o *outcome, work string) error {
	spans := o.spans.all()
	path := filepath.Join(work, "spans-"+name+".jsonl")
	if err := o.spans.write(path); err != nil {
		return err
	}
	self := layerSelf(spans)
	for _, l := range traceLayers {
		o.layers[l+".self_ms"] = self[l]
	}
	fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
	fmt.Println("reconciliation (layer self time vs wall time, per root span):")
	worst := 0.0
	for _, rc := range reconcile(spans) {
		fmt.Println("  " + rc.String())
		worst = max(worst, rc.unexplainedShare())
	}
	o.layers["trace.unexplained_pct"] = 100 * worst
	fmt.Println("per-layer metrics:")
	names := make([]string, 0, len(layerMetrics))
	units := map[string]string{}
	for _, lm := range layerMetrics {
		names = append(names, lm.name)
		units[lm.name] = lm.unit
	}
	sort.Strings(names)
	for _, n := range names {
		if v, ok := o.layers[n]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", n, v, units[n])
		}
	}
	return nil
}
