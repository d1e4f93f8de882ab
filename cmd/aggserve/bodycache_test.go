package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// bodyCacheQueries is every /v1/query kind, by its spellings: q1 and
// count_by_key share an agg.Query but echo different "query" fields.
var bodyCacheQueries = []string{
	"q1", "count_by_key", "q2", "avg_by_key", "q3", "median_by_key",
	"q4", "count", "q5", "avg", "q6", "median",
	"q7&lo=2&hi=7", "range&lo=1&hi=3",
	"sum", "min", "max", "quantile&p=0.9", "mode",
}

// encoded is what writeJSON sends for v: json.Encoder output, trailing
// newline included.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkBody asserts a 200 carrying exactly want, with the given tag, the
// JSON content type and a matching Content-Length.
func checkBody(t *testing.T, label string, w *httptest.ResponseRecorder, etag string, want []byte) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("%s = %d: %s", label, w.Code, w.Body)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("%s body differs from json.Encoder output:\ngot:  %s\nwant: %s", label, w.Body, want)
	}
	if got := w.Header().Get("ETag"); got != etag {
		t.Fatalf("%s ETag = %q, want %q", label, got, etag)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s Content-Type = %q", label, ct)
	}
	if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Fatalf("%s Content-Length = %q, want %d", label, cl, len(want))
	}
}

// TestQueryBodyCache: on a node and on a 3-node router, a miss and the
// hit that follows it both send the bytes json.Encoder produces for a
// freshly computed result, for every query kind and a view result; a
// seal moves the tag and the body; -query-cache -1 stores nothing; many
// q7 ranges and quantiles at one tag stay within the entry and byte
// bounds; a slow read of an older tag does not replace the current
// tag's bodies; and concurrent reads beside live ingest only ever send a
// body that matches its tag.
func TestQueryBodyCache(t *testing.T) {
	const rows = `{"keys":[1,2,1,3,9,9,4,7],"vals":[10,20,30,40,5,7,11,13]}`

	t.Run("node", func(t *testing.T) {
		srv, s := newTestServer(t)
		if w := do(t, srv, http.MethodPost, "/v1/views",
			`{"name":"win","query":"q1","pane_rows":8,"panes":2,"sliding":true}`); w.Code != http.StatusCreated {
			t.Fatalf("register = %d: %s", w.Code, w.Body)
		}
		ingestFlush := func(body string) {
			t.Helper()
			if w := do(t, srv, http.MethodPost, "/v1/ingest", body); w.Code != http.StatusOK {
				t.Fatalf("ingest = %d: %s", w.Code, w.Body)
			}
			if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
				t.Fatalf("flush = %d: %s", w.Code, w.Body)
			}
		}
		ingestFlush(rows)

		wantQuery := func(spelled string) ([]byte, string) {
			t.Helper()
			params, err := url.ParseQuery("q=" + spelled)
			if err != nil {
				t.Fatal(err)
			}
			q, err := parseQueryURL(params)
			if err != nil {
				t.Fatal(err)
			}
			sn := s.Snapshot()
			v, err := sn.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			resp := queryResponse{Query: params.Get("q"), Watermark: sn.Watermark(), Result: v}
			return encoded(t, resp), `"` + strconv.FormatUint(sn.Watermark(), 10) + `"`
		}
		for _, spelled := range bodyCacheQueries {
			want, etag := wantQuery(spelled)
			hits := srv.bodies.hits.Value()
			checkBody(t, spelled+" miss", do(t, srv, http.MethodGet, "/v1/query?q="+spelled, ""), etag, want)
			checkBody(t, spelled+" hit", do(t, srv, http.MethodGet, "/v1/query?q="+spelled, ""), etag, want)
			if got := srv.bodies.hits.Value() - hits; got != 1 {
				t.Fatalf("%s: %d cache hits over a miss and a repeat, want 1", spelled, got)
			}
		}
		for _, spelled := range []string{"q1", "count_by_key"} {
			var env struct {
				Query string `json:"query"`
			}
			w := do(t, srv, http.MethodGet, "/v1/query?q="+spelled, "")
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Query != spelled {
				t.Fatalf("cached %s body echoes query %q (%v)", spelled, env.Query, err)
			}
		}

		wantView := func() ([]byte, string) {
			t.Helper()
			info, err := s.ViewStatus("win")
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.View("win")
			if err != nil {
				t.Fatal(err)
			}
			return encoded(t, res), viewETag(info, res.Version, res.WindowEnd)
		}
		want, etag := wantView()
		checkBody(t, "view miss", do(t, srv, http.MethodGet, "/v1/views/win/result", ""), etag, want)
		hits := srv.bodies.hits.Value()
		checkBody(t, "view hit", do(t, srv, http.MethodGet, "/v1/views/win/result", ""), etag, want)
		if srv.bodies.hits.Value() != hits+1 {
			t.Fatal("repeated view read was not a cache hit")
		}

		// A seal moves both tags; the stored bodies of the old tag must
		// not be served.
		oldQ1 := do(t, srv, http.MethodGet, "/v1/query?q=q1", "")
		ingestFlush(`{"keys":[1,5,5,5],"vals":[1,2,3,4]}`)
		wantQ1, etagQ1 := wantQuery("q1")
		if etagQ1 == oldQ1.Header().Get("ETag") || bytes.Equal(wantQ1, oldQ1.Body.Bytes()) {
			t.Fatal("the seal did not change the q1 tag and body")
		}
		checkBody(t, "q1 after seal", do(t, srv, http.MethodGet, "/v1/query?q=q1", ""), etagQ1, wantQ1)
		checkBody(t, "q1 after seal, hit", do(t, srv, http.MethodGet, "/v1/query?q=q1", ""), etagQ1, wantQ1)
		wantV, etagV := wantView()
		if etagV == etag {
			t.Fatal("the seal did not change the view tag")
		}
		checkBody(t, "view after seal", do(t, srv, http.MethodGet, "/v1/views/win/result", ""), etagV, wantV)

		// Every body held belongs to the current tag: the gauge adds up.
		var held int64
		srv.bodies.mu.Lock()
		for _, set := range srv.bodies.sets {
			for _, b := range set.bodies {
				held += int64(len(b))
			}
		}
		srv.bodies.mu.Unlock()
		if got := srv.bodies.bytes.Value(); got != held {
			t.Fatalf("memagg_http_body_cache_bytes = %d, bodies held %d", got, held)
		}

		// The cache's instruments, and the seal path's publication-lock
		// histogram, are on both scrape endpoints.
		metrics := do(t, srv, http.MethodGet, "/v1/metrics", "").Body.String()
		for _, want := range []string{
			"memagg_http_body_cache_hits_total " + strconv.FormatUint(srv.bodies.hits.Value(), 10),
			"memagg_http_body_cache_misses_total " + strconv.FormatUint(srv.bodies.misses.Value(), 10),
			"memagg_http_body_cache_bytes " + strconv.FormatInt(held, 10),
			"# TYPE memagg_stream_publish_seconds histogram",
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("/v1/metrics missing %q", want)
			}
		}
		var vars map[string]any
		if err := json.Unmarshal(do(t, srv, http.MethodGet, "/v1/debug/vars", "").Body.Bytes(), &vars); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"memagg_http_body_cache_hits_total", "memagg_http_body_cache_misses_total",
			"memagg_http_body_cache_bytes", "memagg_stream_publish_seconds"} {
			if _, ok := vars[name]; !ok {
				t.Errorf("/v1/debug/vars missing %s", name)
			}
		}
	})

	t.Run("bound", func(t *testing.T) {
		srv, _ := newTestServer(t)
		const limit = 8
		srv.bodies.setLimit(limit)
		do(t, srv, http.MethodPost, "/v1/ingest", rows)
		do(t, srv, http.MethodPost, "/v1/flush", "")
		for lo := 0; lo < 50; lo++ {
			target := fmt.Sprintf("/v1/query?q=q7&lo=%d&hi=%d", lo, lo+3)
			if w := do(t, srv, http.MethodGet, target, ""); w.Code != http.StatusOK {
				t.Fatalf("%s = %d", target, w.Code)
			}
			srv.bodies.mu.Lock()
			n := len(srv.bodies.sets[queryResource].bodies)
			srv.bodies.mu.Unlock()
			if n > limit {
				t.Fatalf("%d bodies held after %d distinct ranges, bound %d", n, lo+1, limit)
			}
		}
	})

	t.Run("bytes", func(t *testing.T) {
		srv, _ := newTestServer(t)
		var keys, vals []string
		for k := 0; k < 2000; k++ {
			keys = append(keys, strconv.Itoa(k))
			vals = append(vals, strconv.Itoa(k*7%1000))
		}
		do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[`+strings.Join(keys, ",")+`],"vals":[`+strings.Join(vals, ",")+`]}`)
		do(t, srv, http.MethodPost, "/v1/flush", "")
		c := srv.bodies
		c.maxBytes = 64 << 10
		for i := 0; i < 30; i++ {
			for _, target := range []string{
				fmt.Sprintf("/v1/query?q=quantile&p=%g", float64(i)/30),
				fmt.Sprintf("/v1/query?q=q7&lo=%d&hi=%d", i*50, i*50+800),
			} {
				if w := do(t, srv, http.MethodGet, target, ""); w.Code != http.StatusOK {
					t.Fatalf("%s = %d", target, w.Code)
				}
				c.mu.Lock()
				size := c.sets[queryResource].size
				c.mu.Unlock()
				if got := c.bytes.Value(); got != size || got > c.maxBytes {
					t.Fatalf("after %s: %d bytes held (set %d), bound %d", target, got, size, c.maxBytes)
				}
			}
		}

		// A body above the bound is sent in full but never stored.
		c.maxBytes = 1 << 10
		want := do(t, srv, http.MethodGet, "/v1/query?q=q1", "")
		hits := c.hits.Value()
		if w := do(t, srv, http.MethodGet, "/v1/query?q=q1", ""); w.Body.Len() <= 1<<10 || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("oversized q1 body: %d bytes, equal to the first read: %v", w.Body.Len(), bytes.Equal(w.Body.Bytes(), want.Body.Bytes()))
		}
		if c.hits.Value() != hits {
			t.Fatal("a body above the byte bound was served from the cache")
		}
	})

	t.Run("older tag", func(t *testing.T) {
		srv, _ := newTestServer(t)
		c := srv.bodies
		key := bodyKey{name: "q1"}
		slow, fast := c.ticket(), c.ticket()
		c.put(queryResource, `"8"`, key, []byte("at 8\n"), fast)
		c.put(queryResource, `"4"`, key, []byte("at 4\n"), slow)
		if _, ok := c.get(queryResource, `"4"`, key); ok {
			t.Fatal("a put pinned before the current tag's put replaced it")
		}
		if b, ok := c.get(queryResource, `"8"`, key); !ok || string(b) != "at 8\n" {
			t.Fatalf("current tag's body = %q, %v", b, ok)
		}
		c.put(queryResource, `"8"`, bodyKey{name: "sum"}, []byte("sum at 8\n"), slow)
		if _, ok := c.get(queryResource, `"8"`, bodyKey{name: "sum"}); !ok {
			t.Fatal("an older ticket could not add a body at the current tag")
		}
		c.put(queryResource, `"12"`, key, []byte("at 12\n"), c.ticket())
		if _, ok := c.get(queryResource, `"8"`, key); ok {
			t.Fatal("a newer tag did not replace the set")
		}
		if b, ok := c.get(queryResource, `"12"`, key); !ok || string(b) != "at 12\n" {
			t.Fatalf("newer tag's body = %q, %v", b, ok)
		}
		if got := c.bytes.Value(); got != int64(len("at 12\n")) {
			t.Fatalf("memagg_http_body_cache_bytes = %d after the replace", got)
		}
	})

	t.Run("disabled", func(t *testing.T) {
		srv, _ := newTestServer(t)
		srv.bodies.setLimit(-1)
		do(t, srv, http.MethodPost, "/v1/ingest", rows)
		do(t, srv, http.MethodPost, "/v1/flush", "")
		do(t, srv, http.MethodPost, "/v1/views", `{"name":"win","query":"sum","pane_rows":8,"panes":1}`)
		for _, target := range []string{"/v1/query?q=q1", "/v1/query?q=q1", "/v1/views/win/result", "/v1/views/win/result"} {
			w := do(t, srv, http.MethodGet, target, "")
			if w.Code != http.StatusOK || w.Body.Len() == 0 {
				t.Fatalf("%s = %d: %s", target, w.Code, w.Body)
			}
		}
		if h, m, b := srv.bodies.hits.Value(), srv.bodies.misses.Value(), srv.bodies.bytes.Value(); h != 0 || m != 0 || b != 0 {
			t.Fatalf("disabled cache counted hits %d misses %d bytes %d", h, m, b)
		}
		if len(srv.bodies.sets) != 0 {
			t.Fatalf("disabled cache holds %d resources", len(srv.bodies.sets))
		}
	})

	t.Run("router", func(t *testing.T) {
		srv := newTestCluster(t, 3)
		if w := doRouter(t, srv, http.MethodPost, "/v1/ingest", rows); w.Code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", w.Code, w.Body)
		}
		if w := doRouter(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
			t.Fatalf("flush = %d: %s", w.Code, w.Body)
		}
		for _, spelled := range bodyCacheQueries {
			params, err := url.ParseQuery("q=" + spelled)
			if err != nil {
				t.Fatal(err)
			}
			q, err := parseQueryURL(params)
			if err != nil {
				t.Fatal(err)
			}
			m, err := srv.rt.Gather()
			if err != nil {
				t.Fatal(err)
			}
			st := clusterState{m}
			v, err := st.run(q)
			if err != nil {
				t.Fatal(err)
			}
			want := encoded(t, st.response(params.Get("q"), v))
			hits := srv.bodies.hits.Value()
			checkBody(t, spelled+" miss", doRouter(t, srv, http.MethodGet, "/v1/query?q="+spelled, ""), st.etag(), want)
			checkBody(t, spelled+" hit", doRouter(t, srv, http.MethodGet, "/v1/query?q="+spelled, ""), st.etag(), want)
			if got := srv.bodies.hits.Value() - hits; got != 1 {
				t.Fatalf("%s: %d router cache hits over a miss and a repeat, want 1", spelled, got)
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		srv, _ := newTestServer(t)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				do(t, srv, http.MethodPost, "/v1/ingest", fmt.Sprintf(`{"keys":[%d,%d,1,2],"vals":[1,2,3,4]}`, i%13, i%7))
				do(t, srv, http.MethodPost, "/v1/flush", "")
			}
		}()
		errs := make(chan error, 4)
		var readers sync.WaitGroup
		for g := 0; g < 4; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; i < 100; i++ {
					w := do(t, srv, http.MethodGet, "/v1/query?q=q1", "")
					var resp struct {
						Watermark uint64 `json:"watermark"`
						Result    []struct {
							Count uint64 `json:"Count"`
						} `json:"result"`
					}
					if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
						errs <- err
						return
					}
					var sum uint64
					for _, r := range resp.Result {
						sum += r.Count
					}
					if tag := `"` + strconv.FormatUint(resp.Watermark, 10) + `"`; sum != resp.Watermark || w.Header().Get("ETag") != tag {
						errs <- fmt.Errorf("body for watermark %d (counts %d) sent under ETag %s", resp.Watermark, sum, w.Header().Get("ETag"))
						return
					}
				}
			}()
		}
		readers.Wait()
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// TestViewETagReregister: a view dropped and registered again under the
// same name at the same watermark gets a different tag, so the first
// registration's tag answers 200 with the new body, not 304; the cached
// body of the old registration is gone; and a put racing a Drop or
// Register stores nothing.
func TestViewETagReregister(t *testing.T) {
	srv, s := newTestServer(t)
	do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`)
	if w := do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}
	if wm := s.Watermark(); wm != 4 {
		t.Fatalf("watermark %d, want 4", wm)
	}

	if w := do(t, srv, http.MethodPost, "/v1/views", `{"name":"v","query":"q1","pane_rows":8,"panes":2}`); w.Code != http.StatusCreated {
		t.Fatalf("register q1 = %d: %s", w.Code, w.Body)
	}
	first := do(t, srv, http.MethodGet, "/v1/views/v/result", "")
	if first.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", first.Code, first.Body)
	}
	tag := first.Header().Get("ETag")

	if w := do(t, srv, http.MethodDelete, "/v1/views/v", ""); w.Code != http.StatusOK {
		t.Fatalf("drop = %d: %s", w.Code, w.Body)
	}
	if srv.bodies.sets[viewResource("v")] != nil {
		t.Fatal("dropped view's body is still cached")
	}
	if w := do(t, srv, http.MethodPost, "/v1/views", `{"name":"v","query":"sum","pane_rows":8,"panes":2}`); w.Code != http.StatusCreated {
		t.Fatalf("register sum = %d: %s", w.Code, w.Body)
	}
	info, err := s.ViewStatus("v")
	if err != nil {
		t.Fatal(err)
	}
	if info.StartWatermark != 4 || info.Version != 0 || info.Watermark != 4 {
		t.Fatalf("re-registered view %+v, want start 4 version 0 watermark 4 like the first", info)
	}

	w := doWithHeader(t, srv, http.MethodGet, "/v1/views/v/result", "If-None-Match", tag)
	if w.Code != http.StatusOK {
		t.Fatalf("first registration's tag on the new view = %d, want 200: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("ETag"); got == tag {
		t.Fatalf("re-registered view repeats the tag %s", tag)
	}
	res, err := s.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if want := encoded(t, res); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("re-registered view body:\ngot:  %s\nwant: %s", w.Body, want)
	}
	if bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("re-registered view served the first registration's body")
	}

	// A body whose read began before a Drop or Register is not stored.
	c := srv.bodies
	ticket := c.ticket()
	c.forget(viewResource("v"))
	c.put(viewResource("v"), tag, bodyKey{}, first.Body.Bytes(), ticket)
	if c.sets[viewResource("v")] != nil {
		t.Fatal("a put that raced forget was stored")
	}
}
