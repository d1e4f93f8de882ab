package main

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"memagg/internal/agg"
	"memagg/internal/obs"
)

// defaultBodyEntries is the per-resource body bound when -query-cache is
// 0, the same default the stream's result cache resolves 0 to.
const defaultBodyEntries = 128

// bodyBytesPerResource bounds the bytes one resource's bodies hold; a
// body larger than it is sent but not stored. At 10k groups a vector
// body is about 250 KB, so the bound leaves room for every body a
// dashboard repeats, while a client that varies p= or lo/hi over 2^20
// groups (about 25 MB a body) cannot pin more than one of them.
const bodyBytesPerResource = 32 << 20

// queryResource is the body-cache resource of /v1/query; each view's
// result is the resource viewResource(name).
const queryResource = "query"

func viewResource(name string) string { return "view/" + name }

// bodyCache holds encoded response bodies whose entity tag fixes every
// byte: a /v1/query body is determined by the watermark (or the router's
// composed watermark vector), the query and its spelled name; a view
// result body by the view's tag. A hit is written as stored, so a read
// that repeats at an unchanged tag skips the query, the public-row copy
// and the JSON encode.
//
// A resource ("query", or one view) keeps only the bodies of one tag, at
// most limit of them and maxBytes of bytes; a full set evicts arbitrary
// bodies until the new one fits. A request takes a ticket before it
// resolves its tag, and a put under another tag replaces the set only if
// its ticket is not older than every ticket that stored into the set, so
// a slow read of a superseded tag does not push out the current bodies.
// Bodies are never mutated after they are stored, so a hit may be
// written while another request replaces the set.
type bodyCache struct {
	limit    int   // bodies per resource; < 0 disables the cache
	maxBytes int64 // bytes per resource: bodyBytesPerResource

	tickets atomic.Uint64

	mu    sync.Mutex
	sets  map[string]*bodySet
	floor uint64 // puts holding a ticket at or below it are dropped: set by forget

	hits   *obs.Counter
	misses *obs.Counter
	bytes  *obs.Gauge
}

// bodySet is one resource's bodies at one entity tag.
type bodySet struct {
	etag   string
	ticket uint64 // newest ticket that stored into the set
	bodies map[bodyKey][]byte
	size   int64
}

// bodyKey names a body within a resource at a fixed tag: the query and
// the q spelling it was asked by, which the response echoes. View bodies
// use the zero key.
type bodyKey struct {
	q    agg.Query
	name string
}

func newBodyCache(reg *obs.Registry) *bodyCache {
	return &bodyCache{
		limit:    defaultBodyEntries,
		maxBytes: bodyBytesPerResource,
		sets:     map[string]*bodySet{},
		hits: reg.NewCounter("memagg_http_body_cache_hits_total",
			"Query and view reads answered with a cached encoded body."),
		misses: reg.NewCounter("memagg_http_body_cache_misses_total",
			"Query and view reads that found no cached body for their tag."),
		bytes: reg.NewGauge("memagg_http_body_cache_bytes",
			"Bytes of encoded response bodies held by the body cache."),
	}
}

// setLimit applies the node's -query-cache flag: 0 keeps the default
// bound, a negative value disables the cache. Call it before serving.
func (c *bodyCache) setLimit(entries int) {
	if entries != 0 {
		c.limit = entries
	}
}

// ticket is taken before a request resolves its entity tag and passed
// to put: tickets order the requests' pins.
func (c *bodyCache) ticket() uint64 { return c.tickets.Add(1) }

// get returns the stored body for key at etag, counting the outcome.
func (c *bodyCache) get(resource, etag string, key bodyKey) ([]byte, bool) {
	if c.limit < 0 {
		return nil, false
	}
	c.mu.Lock()
	var body []byte
	if set := c.sets[resource]; set != nil && set.etag == etag {
		body = set.bodies[key]
	}
	c.mu.Unlock()
	if body == nil {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	return body, true
}

// put stores body for key at etag under the request's ticket. It stores
// nothing when a forget ran since the ticket was taken, or when the
// resource holds another tag stored by a newer ticket; a body above
// maxBytes only drops the set of an older tag.
func (c *bodyCache) put(resource, etag string, key bodyKey, body []byte, ticket uint64) {
	if c.limit < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ticket <= c.floor {
		return
	}
	set := c.sets[resource]
	if set != nil && set.etag != etag {
		if ticket < set.ticket {
			return
		}
		c.drop(resource)
		set = nil
	}
	if int64(len(body)) > c.maxBytes {
		return
	}
	if set == nil {
		set = &bodySet{etag: etag, bodies: map[bodyKey][]byte{}}
		c.sets[resource] = set
	}
	set.ticket = max(set.ticket, ticket)
	if old, ok := set.bodies[key]; ok {
		c.remove(set, key, old)
	}
	for k, b := range set.bodies {
		if len(set.bodies) < c.limit && set.size+int64(len(body)) <= c.maxBytes {
			break
		}
		c.remove(set, k, b)
	}
	set.bodies[key] = body
	set.size += int64(len(body))
	c.bytes.Add(int64(len(body)))
}

// remove deletes one body from set. Callers hold c.mu.
func (c *bodyCache) remove(set *bodySet, key bodyKey, body []byte) {
	delete(set.bodies, key)
	set.size -= int64(len(body))
	c.bytes.Add(-int64(len(body)))
}

// forget drops a resource's bodies and fails every put whose ticket was
// taken before it. Register and Drop call it once the view changed: a
// read that resolved its tag from the previous registration either
// stores before the forget, which removes the body again, or not at all.
func (c *bodyCache) forget(resource string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = c.tickets.Load()
	c.drop(resource)
}

// drop removes a resource's set. Callers hold c.mu.
func (c *bodyCache) drop(resource string) {
	if set := c.sets[resource]; set != nil {
		c.bytes.Add(-set.size)
		delete(c.sets, resource)
	}
}

// encodeJSON encodes v exactly as writeJSON does: json.Encoder, trailing
// newline. A value that does not encode (a NaN float) yields an empty
// body, as writeJSON writes, and false: such a body is not stored.
func encodeJSON(v any) ([]byte, bool) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		log.Printf("aggserve: encode: %v", err)
		return nil, false
	}
	return buf.Bytes(), true
}

// writeBody writes an encoded JSON body with its entity tag and length.
func writeBody(w http.ResponseWriter, etag string, body []byte) {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		log.Printf("aggserve: write: %v", err)
	}
}
