package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// Repeat mode runs one workload k times, each in its own process with the
// next seed, and prints each metric's median, quartiles and spread (the
// interquartile range as a share of the median) next to the bound
// BENCHMARK.json fixes for it. With --compare-trace it alternates
// untraced and traced runs and prints how much tracing moved each
// end-to-end metric.

type childRun struct {
	e2e    map[string]float64 // every end-to-end metric the run printed
	result map[string]metric  // the final JSON line's metrics
	ok     bool
}

func repeatMode(workload string, seed uint64, seconds float64, trace, k int, compare bool, benchFile string) error {
	bounds := readBounds(benchFile)
	var plain, traced []childRun
	for i := 0; i < k; i++ {
		modes := []int{trace}
		if compare {
			// Alternate which side runs first.
			modes = []int{0, 1}
			if i%2 == 1 {
				modes = []int{1, 0}
			}
		}
		for _, m := range modes {
			run, err := child(workload, seed+uint64(i), seconds, m)
			if err != nil {
				return err
			}
			if m == 1 {
				traced = append(traced, run)
			} else {
				plain = append(plain, run)
			}
		}
	}
	main := plain
	if trace == 1 {
		main = traced
	}
	fmt.Printf("\nworkload %s: %d runs, seeds %d..%d, %g s each\n", workload, k, seed, seed+uint64(k)-1, seconds)
	failed := 0
	for _, r := range main {
		if !r.ok {
			failed++
		}
	}
	fmt.Printf("runs with a wrong answer or failure: %d\n", failed)
	fmt.Printf("%-34s %14s %14s %14s %9s %7s %s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
	printSpreads(main, func(r childRun) map[string]float64 { return resultValues(r.result) }, bounds)
	fmt.Println("every end-to-end metric the workload defines:")
	printSpreads(main, func(r childRun) map[string]float64 { return r.e2e }, nil)
	if compare {
		fmt.Println("tracing overhead (traced median vs untraced median):")
		up := collect(plain, func(r childRun) map[string]float64 { return r.e2e })
		tp := collect(traced, func(r childRun) map[string]float64 { return r.e2e })
		for _, n := range sortedKeys(up) {
			a, b := median(up[n]), median(tp[n])
			change := "n/a"
			if a != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
			}
			fmt.Printf("  %-32s untraced %12.4f traced %12.4f  change %s\n", n, a, b, change)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed", failed, k)
	}
	return nil
}

// child runs one workload in a fresh process and parses its output.
func child(workload string, seed uint64, seconds float64, trace int) (childRun, error) {
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
	for _, f := range []string{"bin", "work", "commit"} {
		args = append(args, "--"+f, flag.Lookup(f).Value.String())
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	run := childRun{e2e: map[string]float64{}, ok: err == nil}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) == 0 {
		return run, fmt.Errorf("seed %d: no output: %v", seed, err)
	}
	var res struct {
		Metrics map[string]metric `json:"metrics"`
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return run, fmt.Errorf("seed %d: no result line (%v): %v", seed, err, jerr)
	}
	run.result = res.Metrics
	in := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "end-to-end metrics:":
			in = true
		case in && strings.HasPrefix(line, "  "):
			f := strings.Fields(line)
			if len(f) >= 2 {
				if v, perr := strconv.ParseFloat(f[1], 64); perr == nil {
					run.e2e[f[0]] = v
				}
			}
		default:
			in = false
		}
	}
	fmt.Printf("seed %d: %s\n", seed, lines[len(lines)-1])
	return run, nil
}

func resultValues(m map[string]metric) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Value
	}
	return out
}

func collect(runs []childRun, pick func(childRun) map[string]float64) map[string][]float64 {
	vals := map[string][]float64{}
	for _, r := range runs {
		for k, v := range pick(r) {
			vals[k] = append(vals[k], v)
		}
	}
	return vals
}

func printSpreads(runs []childRun, pick func(childRun) map[string]float64, bounds map[string]float64) {
	vals := collect(runs, pick)
	for _, n := range sortedKeys(vals) {
		q1, q2, q3 := quartiles(vals[n])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound, mark := "", ""
		if b, ok := bounds[n]; ok {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case spread > b:
				mark = "OVER BOUND"
			case spread > b/3:
				mark = "over a third of the bound"
			}
		}
		fmt.Printf("  %-32s %14.4f %14.4f %14.4f %9.4f %7s %s\n", n, q1, q2, q3, spread, bound, mark)
	}
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// readBounds reads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
