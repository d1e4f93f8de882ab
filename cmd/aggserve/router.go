package main

import (
	"encoding/json"
	"net/http"

	"memagg"
	"memagg/internal/agg"
	"memagg/internal/cluster"
	"memagg/internal/obs"
)

// routerServer wires a cluster.Router to the same HTTP API a single node
// serves: clients speak one protocol whether they face one aggserve or a
// sharded fleet. Ingest batches are split by group-key hash and shipped
// to the owning workers; queries scatter-gather every worker's partial
// set and merge exactly; responses carry the composed cluster watermark
// and its ETag.
type routerServer struct {
	*api
	rt *cluster.Router
}

func newRouterServer(rt *cluster.Router) *routerServer {
	srv := &routerServer{api: newAPI(obs.Default, rt.Registry()), rt: rt}
	srv.handle("/ingest", srv.handleIngest)
	srv.handle("/flush", srv.handleFlush)
	srv.handle("/query", srv.handleQuery)
	srv.handle("/cluster/stats", srv.handleClusterStats)
	srv.handle("/readyz", srv.handleReadyz)
	return srv
}

func (srv *routerServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if isChunkRequest(r) {
		// Binary chunk stream in, binary chunks out: each decoded chunk
		// scatters columnar-wise by ring owner — one partition pass, one
		// outbound wire chunk per peer, no JSON anywhere on the path.
		rows, err := agg.DrainChunks(r.Body, srv.rt.IngestChunk)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]any{"appended": rows, "ingested": srv.rt.IngestRows()})
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
	if err := srv.rt.Ingest(req.Keys, req.Vals); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"appended": len(req.Keys), "ingested": srv.rt.IngestRows()})
}

func (srv *routerServer) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if err := srv.rt.Flush(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"flushed": true})
}

// clusterQueryResponse tags every result with the composed cluster
// watermark it is consistent with: the vector (one element per peer, in
// membership order) plus its total — the cluster analog of the
// single-node watermark field.
type clusterQueryResponse struct {
	Query     string            `json:"query"`
	Watermark cluster.Watermark `json:"watermark"`
	Rows      uint64            `json:"rows"`
	Result    any               `json:"result"`
}

// handleQuery answers over a fresh gather. The gather itself cannot be
// skipped — the composed watermark vector, the entity tag, is only known
// from the peers' responses — but on an ETag match, or a body cached for
// the tag, the merge-side query work and the encode are.
func (srv *routerServer) handleQuery(w http.ResponseWriter, r *http.Request) {
	srv.serveQuery(w, r, func() (queryState, error) {
		m, err := srv.rt.Gather()
		return clusterState{m}, err
	})
}

// clusterState is the queryState of the router: one merged gather.
type clusterState struct{ m *cluster.Merged }

func (s clusterState) etag() string { return s.m.Watermark.ETag() }

func (s clusterState) run(q agg.Query) (any, error) {
	v, err := s.m.Run(q)
	return memagg.PublicResult(v), err
}

func (s clusterState) response(name string, result any) any {
	return clusterQueryResponse{Query: name, Watermark: s.m.Watermark, Rows: s.m.Watermark.Total(), Result: result}
}

func (srv *routerServer) handleClusterStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"peers":       srv.rt.Stats(),
		"ingest_rows": srv.rt.IngestRows(),
	})
}

// handleReadyz reports whether the whole membership is ready: the router
// is only useful when every shard owner accepts writes, so its readiness
// is the conjunction of its peers' /readyz.
func (srv *routerServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := srv.rt.Ready(); err != nil {
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	writeJSON(w, map[string]any{"ready": true, "peers": len(srv.rt.Peers())})
}
