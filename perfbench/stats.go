package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts. NaN for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p/100*float64(len(samples)))) - 1
	return samples[max(0, min(rank, len(samples)-1))]
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method, the definition the spread bound is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

// latencies collects request latencies in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/1e6) }

// tail reports p50 and p99 and how many samples lie beyond p99; the p99
// is trustworthy only with at least ten.
func (l latencies) tail() (p50, p99 float64, n, beyond int) {
	s := append([]float64(nil), l...)
	p50 = percentile(s, 50)
	p99 = percentile(s, 99)
	for _, v := range s {
		if v > p99 {
			beyond++
		}
	}
	return p50, p99, len(s), beyond
}
