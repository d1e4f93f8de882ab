package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"memagg"
)

// client issues the benchmark's requests over loopback. Each workload
// builds one, with as many connections as it has request goroutines.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns + 2,
		MaxIdleConnsPerHost: conns + 2,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one finished request: status 0 means a transport error.
type response struct {
	status int
	body   []byte
	etag   string
	err    error
}

// ok reports a success: 2xx, or 304 on a conditional read.
func (r response) ok() bool {
	return r.err == nil && (r.status/100 == 2 || r.status == http.StatusNotModified)
}

func (r response) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
}

func (c *client) do(req *http.Request) response {
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, body: body, etag: resp.Header.Get("ETag"), err: err}
}

func (c *client) postChunk(base string, body []byte) response {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/ingest", bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", memagg.ChunkContentType)
	return c.do(req)
}

func (c *client) post(base, path string, v any) response {
	var body io.Reader = http.NoBody
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return response{err: err}
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, base+path, body)
	if err != nil {
		return response{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req)
}

func (c *client) get(base, path, ifNoneMatch string) response {
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		return response{err: err}
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	return c.do(req)
}

// getJSON GETs path and decodes a 200 body into v.
func (c *client) getJSON(base, path string, v any) error {
	r := c.get(base, path, "")
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, r.describe())
	}
	return json.Unmarshal(r.body, v)
}

// waitReady polls /v1/readyz until it answers 200.
func (c *client) waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		r := c.get(base, "/v1/readyz", "")
		if r.status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v: %s", base, timeout, r.describe())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// vars scrapes /v1/debug/vars: counters and gauges as numbers, histograms
// as {count, sum_ns}.
func (c *client) vars(base string) (map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	err := c.getJSON(base, "/v1/debug/vars", &m)
	return m, err
}

// query is one read the benchmark issues and checks.
type query struct {
	name   string  // q1, q2, q3, quantile, q7, sum, or view
	lo, hi uint64  // q7 bounds
	p      float64 // quantile
	view   string  // view name for name == "view"
}

func (q query) path() string {
	switch q.name {
	case "view":
		return "/v1/views/" + url.PathEscape(q.view) + "/result"
	case "q7":
		return fmt.Sprintf("/v1/query?q=q7&lo=%d&hi=%d", q.lo, q.hi)
	case "quantile":
		return "/v1/query?q=quantile&p=" + strconv.FormatFloat(q.p, 'g', -1, 64)
	}
	return "/v1/query?q=" + q.name
}

func (q query) label() string {
	if q.name == "view" {
		return "view:" + q.view
	}
	return q.name
}

// vectorResult decodes the "result" field of a vector query answer into
// rows.
func vectorResult(body []byte) ([]row, error) {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, err
	}
	var rows []struct {
		Key   uint64
		Count *uint64
		Value *float64
	}
	if err := json.Unmarshal(env["result"], &rows); err != nil {
		return nil, err
	}
	out := make([]row, len(rows))
	for i, r := range rows {
		out[i].Key = r.Key
		switch {
		case r.Count != nil:
			out[i].Value = float64(*r.Count)
		case r.Value != nil:
			out[i].Value = *r.Value
		}
	}
	return out, nil
}

// sumField adds up every number that follows `"<name>":` in body. It is
// the cheap per-response invariant check: the Count fields of a Q1 answer
// must add up to the watermark in its ETag.
func sumField(body []byte, name string) uint64 {
	pat := []byte(`"` + name + `":`)
	var total uint64
	for {
		i := bytes.Index(body, pat)
		if i < 0 {
			return total
		}
		body = body[i+len(pat):]
		var v uint64
		j := 0
		for ; j < len(body) && body[j] >= '0' && body[j] <= '9'; j++ {
			v = v*10 + uint64(body[j]-'0')
		}
		total += v
		body = body[j:]
	}
}

// firstUint returns the first number that follows `"<name>":` in body.
func firstUint(body []byte, name string) (uint64, bool) {
	pat := []byte(`"` + name + `":`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0, false
	}
	body = body[i+len(pat):]
	j := 0
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(body[:j]), 10, 64)
	return v, err == nil
}

// etagRows is the row count an ETag names: "<n>" on a node, "c<a>.<b>..."
// (one watermark per peer) on the router.
func etagRows(etag string) (uint64, bool) {
	t := strings.Trim(etag, `"`)
	var total uint64
	for _, part := range strings.Split(strings.TrimPrefix(t, "c"), ".") {
		v, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return 0, false
		}
		total += v
	}
	return total, true
}

// checkResponse applies the invariants every 200 answer must satisfy: a
// Q1 answer's counts add up to the watermark its ETag names, and a view's
// rows equal the width of its window.
func checkResponse(q query, r response) error {
	if r.status != http.StatusOK {
		return nil
	}
	switch q.name {
	case "q1":
		want, ok := etagRows(r.etag)
		if !ok {
			return fmt.Errorf("q1: bad ETag %q", r.etag)
		}
		if got := sumField(r.body, "Count"); got != want {
			return fmt.Errorf("q1: counts sum to %d, ETag watermark %d", got, want)
		}
	case "view":
		start, ok1 := firstUint(r.body, "window_start")
		end, ok2 := firstUint(r.body, "window_end")
		rows, ok3 := firstUint(r.body, "rows")
		if !ok1 || !ok2 || !ok3 {
			return fmt.Errorf("view %s: missing window fields", q.view)
		}
		if rows != end-start {
			return fmt.Errorf("view %s: rows %d != window_end %d - window_start %d", q.view, rows, end, start)
		}
		if q.view == "recent" {
			if got := sumField(r.body, "Count"); got != rows {
				return fmt.Errorf("view %s: counts sum to %d, rows %d", q.view, got, rows)
			}
		}
	}
	return nil
}
