package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"

	"memagg"
)

// Continuous-view CRUD and reads:
//
//	GET    /v1/views               list registered views
//	POST   /v1/views               register a view (JSON spec below)
//	GET    /v1/views/{name}        one view's description
//	DELETE /v1/views/{name}        drop a view
//	GET    /v1/views/{name}/result evaluate the view's standing query
//
// Result responses carry an ETag derived from the view's version counter,
// absorbed watermark and registration, so a poller whose view has not
// absorbed a seal since its last read gets a 304 without any merge work —
// the HTTP face of the view's own result cache. A plain repeated read at
// that tag is answered with the body encoded for it the first time.

// viewRequest is the POST /v1/views body: the ViewSpec fields in the
// /v1/query parameter spellings.
type viewRequest struct {
	Name     string  `json:"name"`
	Query    string  `json:"query"`
	P        float64 `json:"p,omitempty"`
	Lo       uint64  `json:"lo,omitempty"`
	Hi       uint64  `json:"hi,omitempty"`
	PaneRows uint64  `json:"pane_rows"`
	Panes    int     `json:"panes"`
	Sliding  bool    `json:"sliding,omitempty"`
}

func (srv *server) handleViews(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, map[string]any{"views": srv.stream.Views()})
	case http.MethodPost:
		var req viewRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			return
		}
		err := srv.stream.RegisterView(memagg.ViewSpec{
			Name:     req.Name,
			Query:    req.Query,
			P:        req.P,
			Lo:       req.Lo,
			Hi:       req.Hi,
			PaneRows: req.PaneRows,
			Panes:    req.Panes,
			Sliding:  req.Sliding,
		})
		if err != nil {
			writeError(w, err)
			return
		}
		srv.bodies.forget(viewResource(req.Name))
		info, err := srv.stream.ViewStatus(req.Name)
		if err != nil {
			// Registered but dropped by a concurrent DELETE before the
			// readback — report what the register call achieved.
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, info)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleViewItem serves /views/{name} and /views/{name}/result (under
// both the /v1 and unversioned mounts).
func (srv *server) handleViewItem(w http.ResponseWriter, r *http.Request) {
	rest := r.URL.Path
	if i := strings.Index(rest, "/views/"); i >= 0 {
		rest = rest[i+len("/views/"):]
	}
	name, sub, _ := strings.Cut(rest, "/")
	if name == "" {
		httpError(w, http.StatusNotFound, "missing view name")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		info, err := srv.stream.ViewStatus(name)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, info)
	case sub == "" && r.Method == http.MethodDelete:
		if !srv.stream.DropView(name) {
			httpError(w, http.StatusNotFound, "unknown view "+strconv.Quote(name))
			return
		}
		srv.bodies.forget(viewResource(name))
		writeJSON(w, map[string]any{"dropped": name})
	case sub == "result" && r.Method == http.MethodGet:
		srv.handleViewResult(w, r, name)
	default:
		httpError(w, http.StatusNotFound, "unknown view route")
	}
}

func (srv *server) handleViewResult(w http.ResponseWriter, r *http.Request, name string) {
	// A view result is fully determined by the view's registration and
	// its fold/evict version and absorbed watermark, so the entity tag
	// names them all — checked, and then the cached body looked up,
	// before any pane merge runs.
	ticket := srv.bodies.ticket()
	info, err := srv.stream.ViewStatus(name)
	if err != nil {
		writeError(w, err)
		return
	}
	etag := viewETag(info, info.Version, info.Watermark)
	if notModified(w, r, etag) {
		return
	}
	resource := viewResource(name)
	if body, ok := srv.bodies.get(resource, etag, bodyKey{}); ok {
		writeBody(w, etag, body)
		return
	}
	res, err := srv.stream.View(name)
	if err != nil {
		writeError(w, err)
		return
	}
	// Tag with the version the result actually carries: a seal may have
	// landed between the info read and the evaluation.
	etag = viewETag(info, res.Version, res.WindowEnd)
	body, ok := encodeJSON(res)
	if ok {
		srv.bodies.put(resource, etag, bodyKey{}, body, ticket)
	}
	writeBody(w, etag, body)
}

// viewETag is a view result's entity tag: its fold/evict version and the
// watermark it has absorbed, then the registration watermark and a hash
// of the definition. Version and watermark restart with every
// registration, so without the last two a view dropped and registered
// again under the same name could repeat a tag for a different body.
func viewETag(info memagg.ViewInfo, version, watermark uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d\x00%d\x00%t", info.Query, info.PaneRows, info.Panes, info.Sliding)
	return `"cv` + strconv.FormatUint(version, 10) + "-" + strconv.FormatUint(watermark, 10) +
		"-" + strconv.FormatUint(info.StartWatermark, 10) + "-" + strconv.FormatUint(h.Sum64(), 16) + `"`
}
