// Command perfbench is the repository benchmark: one command that drives
// the aggserve binaries over loopback (workloads ingest, dashboard and
// cluster) or the memagg library in-process (workload batch), checks
// every answer against its own reference, and prints the end-to-end
// metrics, or with --trace 1 the per-layer metrics. See README.md.
//
// It is started by run.sh, which builds aggserve and this command first:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload batch --repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	wrong             []string // wrong answers, described
	e2e               []named  // every end-to-end metric defined on the workload
	layers            map[string]float64
	notes             []string  // extra report lines
	digest            string    // SHA-256 prefix of the generated inputs
	spans             *recorder // nil when untraced
}

type named struct {
	name, unit string
	value      float64
}

func (o *outcome) add(name, unit string, v float64) {
	o.e2e = append(o.e2e, named{name, unit, v})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) value(name string) (float64, bool) {
	for _, m := range o.e2e {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// fail records a failed operation; wrong marks it a wrong answer too.
func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

// env is what a workload run needs from the command line.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	bin     string // directory holding the aggserve binary
	work    string // working directory for this run, inside the checkout
}

func (e env) aggserve() string { return filepath.Join(e.bin, "aggserve") }

func (e env) measure() time.Duration { return time.Duration(e.seconds * float64(time.Second)) }

var workloads = map[string]func(env) (*outcome, error){
	"ingest":    runIngest,
	"dashboard": runDashboard,
	"cluster":   runCluster,
	"batch":     runBatch,
}

// Each run sets up several times and reports the median set-up time;
// the processes of the last set-up serve the measured phase. A set-up of
// tens of milliseconds takes more rounds to give a steady median than one
// of half a second.
const (
	setupsFast = 15
	setupsSlow = 5
)

func main() {
	var (
		workload = flag.String("workload", "", "ingest | dashboard | cluster | batch")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the aggserve binary")
		work     = flag.String("work", ".bench_build/perfbench", "directory for data, logs and spans")
		repeat   = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, ...) and print each metric's spread")
		commit   = flag.String("commit", "unknown", "commit under test, for the record")
		compare  = flag.Bool("compare-trace", false, "repeat mode: also run each seed with tracing flipped and report the overhead")
		bench    = flag.String("benchmark", "BENCHMARK.json", "repeat mode: file holding the end-to-end bounds")
	)
	flag.Parse()
	if *repeat > 0 {
		if err := repeatMode(*workload, *seed, *seconds, *trace, *repeat, *compare, *bench); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload ingest|dashboard|cluster|batch, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	os.Exit(runOne(*workload, run, *seed, *seconds, *trace == 1, *bin, *work, *commit))
}

// runOne runs one workload and prints its report; the last line of
// standard output is the JSON result.
func runOne(name string, run func(env) (*outcome, error), seed uint64, seconds float64, trace bool, bin, work, commit string) int {
	// Any way out of the process takes the servers down with it.
	defer killAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()

	dir := filepath.Join(work, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	e := env{seed: seed, seconds: seconds, trace: trace, bin: bin, work: dir}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	o, err := run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	fmt.Printf("inputs sha256=%s\n", o.digest)
	for _, n := range o.notes {
		fmt.Println(n)
	}
	o.add("fail_ratio", "ratio", float64(o.failed)/float64(max(o.attempted, 1)))
	fmt.Println("end-to-end metrics:")
	for _, m := range o.e2e {
		fmt.Printf("  %-22s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, w := range o.wrong {
		fmt.Println("WRONG ANSWER:", w)
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}

	if trace {
		if err := traceReport(name, o, work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		for _, lm := range layerMetrics {
			v, ok := o.layers[lm.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[lm.name] = metric{v, lm.unit}
		}
	} else {
		for _, h := range headline {
			v, ok := o.value(h.source[name])
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: %s reported no %s\n", name, h.source[name])
				return 1
			}
			res.Metrics[h.name] = metric{v, h.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// headline maps the end-to-end metrics BENCHMARK.json gates on, which
// every workload must report, to the workload metric each one reads.
var headline = []struct {
	name, unit string
	source     map[string]string
}{
	{"setup_s", "s", map[string]string{
		"ingest": "setup_s", "dashboard": "setup_s", "cluster": "setup_s", "batch": "setup_s"}},
	{"rows_per_s", "rows/s", map[string]string{
		"ingest": "ingest_rows_per_s", "dashboard": "ingest_rows_per_s", "cluster": "ingest_rows_per_s", "batch": "batch_rows_per_s"}},
	{"latency_ms", "ms", map[string]string{
		"ingest": "ingest_ack_p50_ms", "dashboard": "query_kind_p50_ms", "cluster": "query_kind_p50_ms", "batch": "batch_pass_ms"}},
	{"peak_rss_mb", "MB", map[string]string{
		"ingest": "peak_rss_mb", "dashboard": "peak_rss_mb", "cluster": "peak_rss_mb", "batch": "peak_rss_mb"}},
}

// addLatency reports a latency sample set as <prefix>_p50_ms and
// <prefix>_p99_ms, noting the sample count and how many lie beyond p99.
func (o *outcome) addLatency(prefix string, l latencies) {
	p50, p99, n, beyond := l.tail()
	o.add(prefix+"_p50_ms", "ms", p50)
	o.add(prefix+"_p99_ms", "ms", p99)
	warn := ""
	if beyond < 10 {
		warn = " (fewer than 10 beyond p99: p99 is indicative only)"
	}
	o.note("  %s: n=%d, %d samples beyond p99%s", prefix, n, beyond, warn)
}
