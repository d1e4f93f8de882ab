package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/cluster"
	"memagg/internal/obs"
)

// statusClientClosedRequest reports a request whose client disconnected
// before the response was ready (the nginx convention; Go's standard
// status list stops at 511).
const statusClientClosedRequest = 499

// api is the HTTP surface both serving modes share. Every route passes
// through the metrics middleware (per-route request counters by status
// code, per-route latency histograms), and /metrics and /debug/vars serve
// those families next to the registries the mode passes in. /healthz is
// the liveness probe: the process is up and the mux is serving. It
// deliberately checks nothing else — a read-only node or a router with
// unreachable peers is still alive, and restarting it would not help.
// bodies is the encoded-body cache the query and view-result routes of
// both modes share; its counters live in the api registry.
type api struct {
	mux      *http.ServeMux
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	bodies   *bodyCache
}

func newAPI(regs ...*obs.Registry) *api {
	reg := obs.NewRegistry()
	a := &api{
		mux: http.NewServeMux(),
		requests: reg.NewCounterVec("memagg_http_requests_total",
			"HTTP requests served, by route and status code.", "route", "code"),
		latency: reg.NewHistogramVec("memagg_http_request_seconds",
			"HTTP request latency, by route.", "route"),
		bodies: newBodyCache(reg),
	}
	regs = append(regs, reg)
	a.mux.Handle("/v1/metrics", obs.Handler(regs...))
	a.mux.Handle("/metrics", obs.Handler(regs...))
	a.mux.Handle("/v1/debug/vars", obs.VarsHandler(regs...))
	a.mux.Handle("/debug/vars", obs.VarsHandler(regs...))
	a.handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"ok": true})
	})
	return a
}

func (a *api) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mux.ServeHTTP(w, r)
}

// statusWriter captures the status code a handler writes (200 when the
// handler never calls WriteHeader explicitly).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handle registers h behind the metrics middleware, mounted at its
// versioned path /v1<route> with the unversioned route kept as an alias.
// Both spellings share one route label so the metric cardinality (and
// existing dashboards) do not split by prefix.
func (a *api) handle(route string, h http.HandlerFunc) {
	lat := a.latency.With(route)
	wrapped := func(w http.ResponseWriter, r *http.Request) {
		mk := obs.Start()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		mk.Tick(lat)
		a.requests.With(route, strconv.Itoa(sw.status)).Inc()
	}
	a.mux.HandleFunc("/v1"+route, wrapped)
	a.mux.HandleFunc(route, wrapped)
}

// queryState is one consistent state a /v1/query request runs over: a
// node's snapshot or the router's merged gather.
type queryState interface {
	// etag is the entity tag: the watermark the state reflects, which
	// (per URL) fully determines every query result.
	etag() string
	// run executes q, returning the result in the public memagg row
	// types.
	run(q agg.Query) (any, error)
	// response wraps a result in the mode's response envelope.
	response(name string, result any) any
}

// serveQuery answers GET /v1/query for both modes: parse the URL once,
// pin the state, answer 304 when the client already holds the body for
// its entity tag, then serve the encoded body cached for this tag and
// query — all before any query work runs. Otherwise run the query once,
// encode once and cache the body. The query runs off the handler
// goroutine so a client that goes away stops the wait; the state is
// read-only, so the abandoned run has nothing to undo.
func (a *api) serveQuery(w http.ResponseWriter, r *http.Request, pin func() (queryState, error)) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	params := r.URL.Query()
	q, err := parseQueryURL(params)
	if err != nil {
		writeError(w, err)
		return
	}
	ticket := a.bodies.ticket()
	st, err := pin()
	if err != nil {
		writeError(w, err)
		return
	}
	etag := st.etag()
	if notModified(w, r, etag) {
		return
	}
	key := bodyKey{q: q, name: params.Get("q")}
	if body, ok := a.bodies.get(queryResource, etag, key); ok {
		writeBody(w, etag, body)
		return
	}
	type outcome struct {
		result any
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		v, err := st.run(q)
		done <- outcome{v, err}
	}()
	select {
	case <-r.Context().Done():
		httpError(w, statusClientClosedRequest, "request canceled: "+r.Context().Err().Error())
	case o := <-done:
		if o.err != nil {
			writeError(w, o.err)
			return
		}
		body, ok := encodeJSON(st.response(key.name, o.result))
		if ok {
			a.bodies.put(queryResource, etag, key, body, ticket)
		}
		writeBody(w, etag, body)
	}
}

// parseQueryURL resolves a /v1/query URL into a validated query: q names
// it (see agg.ParseQuery), q7/range also takes lo= and hi=, quantile
// takes p= in [0, 1]. Errors wrap agg.ErrBadQuery.
func parseQueryURL(params url.Values) (agg.Query, error) {
	name := params.Get("q")
	if name == "" {
		return agg.Query{}, fmt.Errorf("%w: missing q parameter", agg.ErrBadQuery)
	}
	q, err := agg.ParseQuery(name, 0, 0, 0)
	if err != nil {
		return q, err
	}
	switch q.ID {
	case agg.QRange:
		if q.Lo, err = uintParam(params, "lo"); err != nil {
			return q, err
		}
		if q.Hi, err = uintParam(params, "hi"); err != nil {
			return q, err
		}
	case agg.QQuantile:
		if q.P, err = strconv.ParseFloat(params.Get("p"), 64); err != nil {
			return q, fmt.Errorf("%w: quantile needs p in [0, 1]", agg.ErrBadQuery)
		}
	}
	return q, q.Validate()
}

func uintParam(params url.Values, name string) (uint64, error) {
	v, err := strconv.ParseUint(params.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: range needs %s=<uint64>", agg.ErrBadQuery, name)
	}
	return v, nil
}

// notModified answers 304 Not Modified, and reports true, when the
// request's If-None-Match already names etag.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	if !etagMatches(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.Header().Set("ETag", etag)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// etagMatches reports whether an If-None-Match header value matches the
// given entity tag: "*" matches anything, and the comma-separated list is
// compared tag by tag. Weak validators (W/ prefix) compare by opaque tag —
// the weak comparison RFC 9110 prescribes for If-None-Match.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		tag = strings.TrimPrefix(tag, "W/")
		if tag == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("aggserve: encode: %v", err)
	}
}

// httpError writes the API's error envelope: {"error": ..., "code": ...},
// code echoing the HTTP status. Every failure on both the single-node and
// router surfaces uses this one shape (a partial gather adds the missing
// peers to it).
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": msg, "code": status})
}

// errorStatus maps an error to its HTTP status — the one table both modes
// share. The 503s come first: the stream draining at shutdown
// (ErrClosed), degraded to read-only after a durability fault
// (ErrDurability), or a peer the router cannot reach are the expected,
// retryable refusals. Anything unrecognized is a 500, so a future
// unexpected error never masquerades as routine unavailability.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, memagg.ErrClosed), errors.Is(err, memagg.ErrDurability),
		errors.Is(err, cluster.ErrPeerUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, memagg.ErrBadQuery), errors.Is(err, memagg.ErrBadView),
		errors.Is(err, memagg.ErrChunkWire), errors.Is(err, memagg.ErrWALCorrupt):
		return http.StatusBadRequest
	case errors.Is(err, memagg.ErrUnknownView):
		return http.StatusNotFound
	case errors.Is(err, memagg.ErrViewExists):
		return http.StatusConflict
	case errors.Is(err, memagg.ErrUnsupportedQuery):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// writeError writes err in the shared envelope with its errorStatus. A
// partial gather additionally names the unreachable peers, so operators
// see which shard is out rather than a bare 503.
func writeError(w http.ResponseWriter, err error) {
	var pa *cluster.PartialAvailabilityError
	if errors.As(err, &pa) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{
			"error":   "partial availability: exact results need every shard",
			"code":    http.StatusServiceUnavailable,
			"missing": pa.Missing,
		})
		return
	}
	httpError(w, errorStatus(err), err.Error())
}
