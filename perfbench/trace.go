package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The span recorder times calls into the program's layers from the
// benchmark's own code; the program itself carries no spans. A span's
// name is "<layer>.<operation>", its layer being one of the module names
// the report groups by (aggserve, agg, stream, wal, cview, cluster) or
// "bench" for the benchmark's own root spans. Spans stay in memory until
// the run ends and are then written out as JSON lines.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // request id shared by a request's spans
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open is a span that has started; close records it.
type open struct {
	r *recorder
	s span
}

// begin starts a span. A nil recorder hands out spans that record
// nothing, so untraced code paths call the same functions.
func (r *recorder) begin(name string, parent, req int64) open {
	if r == nil {
		return open{}
	}
	return open{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.epoch))}}
}

func (o open) id() int64 { return o.s.ID }

func (o open) end() {
	if o.r == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
}

func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that the union of its children's intervals covers.
// Children that overlap each other (concurrent calls) are counted once.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of parent's interval that the union of the
// children's intervals covers.
func covered(parent span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// unexplainedLimit is the share of a root span's wall time that may pass
// outside every layer span before the reconciliation flags it.
const unexplainedLimit = 0.10

// reconciliation compares, for the root spans of one name, their wall
// time with the self times of the layer spans beneath them.
type reconciliation struct {
	Root        string             `json:"root"`
	Roots       int                `json:"roots"`
	WallMS      float64            `json:"wall_ms"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms"`
	// UnexplainedMS is the roots' own self time: wall time no layer span
	// covers, spent in the benchmark between calls.
	UnexplainedMS float64 `json:"unexplained_ms"`
	Flagged       bool    `json:"flagged"`
}

func (c reconciliation) unexplainedShare() float64 {
	if c.WallMS == 0 {
		return 0
	}
	return c.UnexplainedMS / c.WallMS
}

// reconcile builds one reconciliation per root span name: a replay has
// one root, the measured phase one root per request. Layer self times
// are attributed to the root each span descends from.
func reconcile(spans []span) []reconciliation {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) span {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s
	}
	out := map[string]*reconciliation{}
	var order []string
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		rc := out[s.Name]
		if rc == nil {
			rc = &reconciliation{Root: s.Name, LayerSelfMS: map[string]float64{}}
			out[s.Name] = rc
			order = append(order, s.Name)
		}
		rc.Roots++
		rc.WallMS += ms(s.dur())
		rc.UnexplainedMS += ms(self[s.ID])
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if rc := out[rootOf(s).Name]; rc != nil {
			rc.LayerSelfMS[s.layer()] += ms(self[s.ID])
		}
	}
	sort.Strings(order)
	list := make([]reconciliation, 0, len(order))
	for _, name := range order {
		rc := out[name]
		rc.Flagged = rc.unexplainedShare() > unexplainedLimit
		list = append(list, *rc)
	}
	return list
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// layerSelf sums self time per layer over every non-root span.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.layer()] += ms(self[s.ID])
		}
	}
	return out
}

func (c reconciliation) String() string {
	flag := ""
	if c.Flagged {
		flag = fmt.Sprintf("  FLAG: %.1f%% unexplained (> %.0f%%)", 100*c.unexplainedShare(), 100*unexplainedLimit)
	}
	layers := make([]string, 0, len(c.LayerSelfMS))
	for l, v := range c.LayerSelfMS {
		layers = append(layers, fmt.Sprintf("%s=%.1f", l, v))
	}
	sort.Strings(layers)
	return fmt.Sprintf("%-24s x%-5d wall %9.1f ms  self[%s]  unexplained %.1f ms%s",
		c.Root, c.Roots, c.WallMS, strings.Join(layers, " "), c.UnexplainedMS, flag)
}
