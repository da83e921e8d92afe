// Package qcache provides a thread-safe LRU cache of query results for
// the search service: map services see the same example queries repeatedly
// (shared links, back navigation, tile reloads), and an engine search is
// many orders of magnitude more expensive than a cache probe.
//
// Keys canonically encode the query (variant, parameters, algorithm and
// the full example); queries carrying a custom Metric are not cacheable
// (metrics have no canonical encoding) and bypass the cache.
package qcache

import (
	"container/list"
	"context"
	"encoding/binary"
	"math"
	"sync"

	"spatialseq/internal/core"
	"spatialseq/internal/query"
)

// Cache is an LRU over query results. The zero value is unusable; call New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	cap     int

	hits, misses, evictions uint64
}

type entry struct {
	key string
	res *core.Result
}

// DefaultSize is the entry capacity used when New gets size <= 0.
const DefaultSize = 1024

// New returns a Cache holding up to size results.
func New(size int) *Cache {
	if size <= 0 {
		size = DefaultSize
	}
	return &Cache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
		cap:     size,
	}
}

// Key canonically encodes a (query, algorithm) pair, or ok=false when the
// query cannot be cached (custom metric).
func Key(q *query.Query, algo core.Algorithm) (string, bool) {
	if q.Example.Metric != nil {
		return "", false
	}
	var buf []byte
	u32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf = append(buf, b[:]...)
	}
	f64 := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		buf = append(buf, b[:]...)
	}
	u32(uint32(q.Variant))
	u32(uint32(algo))
	u32(uint32(q.Params.K))
	f64(q.Params.Alpha)
	f64(q.Params.Beta)
	u32(uint32(q.Params.GridD))
	u32(uint32(int32(q.Params.Xi)))
	ex := &q.Example
	u32(uint32(ex.M()))
	for d := 0; d < ex.M(); d++ {
		u32(uint32(ex.Categories[d]))
		f64(ex.Locations[d].X)
		f64(ex.Locations[d].Y)
		u32(uint32(len(ex.Attrs[d])))
		for _, a := range ex.Attrs[d] {
			f64(a)
		}
	}
	u32(uint32(len(ex.Fixed)))
	for _, f := range ex.Fixed {
		u32(uint32(f.Dim))
		u32(uint32(f.Obj))
	}
	u32(uint32(len(ex.SkipPairs)))
	for _, sp := range ex.SkipPairs {
		a, b := sp[0], sp[1]
		if a > b {
			a, b = b, a
		}
		u32(uint32(a))
		u32(uint32(b))
	}
	return string(buf), true
}

// Get returns the cached result for key, if any.
func (c *Cache) Get(key string) (*core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).res, true
}

// Put stores res under key, evicting the least recently used entry when
// full.
func (c *Cache) Put(key string, res *core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).res = res
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*entry).key)
			c.evictions++
		}
	}
	c.entries[key] = c.order.PushFront(&entry{key: key, res: res})
}

// Len returns the number of cached results.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns hit/miss counters.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Metrics is a consistent snapshot of the cache counters, shaped for
// metrics exporters.
type Metrics struct {
	Hits, Misses, Evictions uint64
	Len                     int
}

// Metrics returns all counters and the current size in one locked read.
func (c *Cache) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.order.Len()}
}

// Search answers q through the cache: probe, else run eng.Search and
// store the result. Queries with a custom metric bypass the cache
// entirely. The query is validated (and its params normalized) before
// the key is built, so equivalent queries written with and without
// default values share an entry.
func (c *Cache) Search(ctx context.Context, eng *core.Engine, q *query.Query, algo core.Algorithm, opt core.Options) (*core.Result, bool, error) {
	if err := q.Validate(eng.Dataset()); err != nil {
		return nil, false, err
	}
	key, cacheable := Key(q, algo)
	if cacheable {
		if res, ok := c.Get(key); ok {
			return res, true, nil
		}
	}
	res, err := eng.Search(ctx, q, algo, opt)
	if err != nil {
		return nil, false, err
	}
	if cacheable {
		c.Put(key, res)
	}
	return res, false, nil
}
