package main

import (
	"sync"
	"time"
)

// schedule is one stream of open-loop requests: request i is due at
// start + i*interval, whether or not earlier ones have finished.
type schedule struct {
	interval time.Duration
	fn       func(i int, due time.Time)
}

// openLoop merges the schedules into one queue by due time and serves it
// with a fixed set of workers. A request that finds every worker busy
// waits in the queue, and that wait counts in its latency, because each
// fn times its request from the due time. openLoop returns, per schedule,
// how late the generator dispatched each request (ms), so a run in which
// the generator itself fell behind is visible.
func openLoop(start, deadline time.Time, workers int, scheds ...schedule) []latencies {
	type job struct {
		s, i int
		due  time.Time
	}
	next := make([]int, len(scheds))
	dueOf := func(s int) time.Time { return start.Add(time.Duration(next[s]) * scheds[s].interval) }
	total := 0
	for _, s := range scheds {
		total += int(deadline.Sub(start)/s.interval) + 1
	}
	// Sized to the whole schedule so the dispatcher never blocks: a
	// backlog must show up as latency, not as a late dispatcher.
	jobs := make(chan job, total)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				scheds[j.s].fn(j.i, j.due)
			}
		}()
	}
	late := make([]latencies, len(scheds))
	for {
		s := 0
		for k := range scheds {
			if dueOf(k).Before(dueOf(s)) {
				s = k
			}
		}
		due := dueOf(s)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		late[s].add(time.Since(due))
		jobs <- job{s, next[s], due}
		next[s]++
	}
	close(jobs)
	wg.Wait()
	return late
}
