package main

import (
	"encoding/json"
	"log"
	"mime"
	"net/http"
	"strconv"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/obs"
)

// server wires one memagg.Stream to the HTTP API. Beside the shared
// per-route request metrics, /metrics serves the process-global registry
// (engine phases, arena accounting) and the stream's own (ingest, seal,
// merge, snapshot instruments).
type server struct {
	*api
	stream *memagg.Stream
}

func newServer(s *memagg.Stream) *server {
	srv := &server{api: newAPI(obs.Default, s.MetricsRegistry()), stream: s}
	srv.handle("/ingest", srv.handleIngest)
	srv.handle("/flush", srv.handleFlush)
	srv.handle("/query", srv.handleQuery)
	srv.handle("/stats", srv.handleStats)
	srv.handle("/partials", srv.handlePartials)
	srv.handle("/views", srv.handleViews)
	srv.handle("/views/", srv.handleViewItem)
	srv.handle("/readyz", srv.handleReadyz)
	return srv
}

type ingestRequest struct {
	Keys []uint64 `json:"keys"`
	Vals []uint64 `json:"vals"`
}

func (srv *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if isChunkRequest(r) {
		// Binary chunk stream: decode each wire chunk and transfer its
		// freshly allocated columns straight into the stream — the only
		// copy between socket and delta table is the wire decode itself.
		rows, err := agg.DrainChunks(r.Body, srv.stream.AppendOwnedChunk)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]any{"appended": rows, "ingested": srv.stream.Ingested()})
		return
	}
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Vals) > len(req.Keys) {
		httpError(w, http.StatusBadRequest, "more vals than keys")
		return
	}
	// The decoder allocated the columns for this request alone, so they
	// transfer to the stream without the AppendChunk copy.
	n := len(req.Keys)
	if err := srv.stream.AppendOwnedChunk(memagg.Chunk{Keys: req.Keys, Vals: req.Vals}); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"appended": n, "ingested": srv.stream.Ingested()})
}

// isChunkRequest reports whether the request negotiated the binary chunk
// content type (parameters ignored). Anything else takes the JSON path.
func isChunkRequest(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == memagg.ChunkContentType
}

func (srv *server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := srv.stream.Flush(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"watermark": srv.stream.Watermark()})
}

func (srv *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, srv.stream.Stats())
}

// handlePartials serves this node's full partial-aggregate set in the
// cluster wire format — the worker half of the router's scatter-gather.
// The body is framed and CRC-checked end to end (internal/wal frames), so
// the router detects torn responses; the watermark header names the
// snapshot served.
func (srv *server) handlePartials(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sn := srv.stream.Snapshot()
	buf := sn.EncodePartials(nil)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Memagg-Watermark", strconv.FormatUint(sn.Watermark(), 10))
	if _, err := w.Write(buf); err != nil {
		log.Printf("aggserve: partials write: %v", err)
	}
}

// handleReadyz is the readiness probe: the stream accepts writes — open,
// recovery complete (OpenStream returns only after replay), and not
// degraded to read-only by a durability fault. The cluster router gates
// membership on this, so a degraded node stops receiving sharded ingest
// without being killed.
func (srv *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !srv.stream.Ready() {
		reason := "stream closed"
		if srv.stream.ReadOnly() {
			reason = "durability degraded, read-only"
		}
		httpError(w, http.StatusServiceUnavailable, reason)
		return
	}
	writeJSON(w, map[string]any{"ready": true, "watermark": srv.stream.Watermark()})
}

// queryResponse tags every result with the snapshot watermark it is
// consistent with.
type queryResponse struct {
	Query     string `json:"query"`
	Watermark uint64 `json:"watermark"`
	Result    any    `json:"result"`
}

// handleQuery answers over a freshly pinned snapshot; its watermark is
// the entity tag.
func (srv *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	srv.serveQuery(w, r, func() (queryState, error) { return nodeState{srv.stream.Snapshot()}, nil })
}

// nodeState is the queryState of a single node: one stream snapshot.
type nodeState struct{ sn *memagg.StreamSnapshot }

func (s nodeState) etag() string { return `"` + strconv.FormatUint(s.sn.Watermark(), 10) + `"` }

func (s nodeState) run(q agg.Query) (any, error) { return s.sn.Run(q) }

func (s nodeState) response(name string, result any) any {
	return queryResponse{Query: name, Watermark: s.sn.Watermark(), Result: result}
}
