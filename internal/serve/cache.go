package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"

	"transched/internal/obs"
	"transched/internal/serve/store"
)

// source says where a response body came from; the server's hit/miss
// accounting and the X-Transched-Cache header derive from it.
type source int

const (
	srcCompute source = iota // compute ran (or failed): a miss
	srcMemory                // in-memory LRU hit
	srcFlight                // joined an identical in-flight computation
	srcStore                 // disk-store hit, promoted into memory
)

// hit reports whether the body came for free (no solver ran for this
// caller). Error returns are always srcCompute: a caller that got an
// error got nothing for free.
func (s source) hit() bool { return s != srcCompute }

// cache is a bounded LRU of marshalled response bodies keyed by request
// digest, with singleflight-style in-flight deduplication and an
// optional disk tier behind it. While a key is being computed,
// identical requests wait for that computation instead of starting
// their own, so a burst of equal instances costs one solve. Entries are
// immutable byte slices — a hit hands back the exact bytes the original
// miss produced, which is what makes the byte-identical response
// contract trivial to honour.
//
// The LRU is bounded twice: by entry count (maxEntries) and by total
// body bytes (maxBytes) — a handful of 800-task timelines would
// otherwise pin unbounded memory while the entry bound read as
// "plenty of room".
//
// In front of the digests sit aliases: hashes of the exact request
// bytes (rawRequest.alias), each naming a stored entry, so a repeated
// request finds its body without being parsed. An alias lives and dies
// with its entry.
type cache struct {
	mu         sync.Mutex
	maxEntries int   // <= 0 disables storage (dedup still applies)
	maxBytes   int64 // <= 0 disables the byte bound
	bytes      int64
	ll         *list.List
	items      map[string]*list.Element
	alias      map[[sha256.Size]byte]*list.Element
	inflight   map[string]*flight

	// disk, when non-nil, is consulted on memory misses and written
	// through on computed solves; putErrs counts failed write-throughs
	// (the response is still served — persistence is best-effort).
	disk    *store.Store
	putErrs *obs.Counter
}

// maxAliases bounds the aliases one entry keeps. Clients that spell
// one instance several ways (JSON and raw, query order, timeouts) each
// get one; past the bound the oldest is dropped and its spelling falls
// back to the parse.
const maxAliases = 4

// entry is one stored response.
type entry struct {
	key     string
	body    []byte
	aliases [][sha256.Size]byte // oldest first, at most maxAliases
}

// flight is one in-progress computation; waiters block on done. solve
// is the owner's solve span (set before done closes), which joiners
// graft into their own traces: each joined request keeps its own span
// tree but shares the one solve that actually ran.
type flight struct {
	done  chan struct{}
	body  []byte
	err   error
	solve obs.SpanRef
}

func newCache(maxEntries int, maxBytes int64, disk *store.Store, putErrs *obs.Counter) *cache {
	return &cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		alias:      make(map[[sha256.Size]byte]*list.Element),
		inflight:   make(map[string]*flight),
		disk:       disk,
		putErrs:    putErrs,
	}
}

// Len returns the number of stored entries.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total stored body bytes.
func (c *cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// get returns the stored body for key, refreshing its recency.
func (c *cache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).body, true
	}
	return nil, false
}

// lookupAlias returns the digest and stored body that alias a names,
// refreshing the entry's recency as any hit does. rt receives the
// lookup as a cache span.
func (c *cache) lookupAlias(a [sha256.Size]byte, rt *obs.ReqTrace) (key string, body []byte, ok bool) {
	ct := rt.StartStage(obs.StageCache)
	defer ct.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.alias[a]
	if !ok {
		return "", nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return e.key, e.body, true
}

// addAlias records a as a name of the entry stored under key. It does
// nothing when key is not stored (caching disabled, an oversized body,
// or evicted since), so an alias never outlives or precedes its entry.
// rt receives the bookkeeping as a cache span.
func (c *cache) addAlias(a [sha256.Size]byte, key string, rt *obs.ReqTrace) {
	ct := rt.StartStage(obs.StageCache)
	defer ct.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, ok := c.alias[a]; ok {
		return // equal aliases name equal digests: already this entry's
	}
	e := el.Value.(*entry)
	if len(e.aliases) == maxAliases {
		delete(c.alias, e.aliases[0])
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, a)
	c.alias[a] = el
}

// Do returns the response body for key: from the memory LRU, by joining
// an identical in-flight computation, from the disk tier, or by running
// compute. Only successful computations are stored; a failing compute
// reports its error to every joined waiter and leaves no residue. The
// context bounds only the caller's wait — an in-flight computation it
// joined keeps running for the remaining waiters.
//
// rt (nil when tracing is off) receives the request's cache span —
// lookup bookkeeping, including the wait when joining a flight — plus
// store_read/store_write spans around the disk tier, and joiners adopt
// the flight owner's solve span as a shared span.
func (c *cache) Do(ctx context.Context, key string, rt *obs.ReqTrace, compute func() ([]byte, error)) (body []byte, src source, err error) {
	ct := rt.StartStage(obs.StageCache)
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		body := el.Value.(*entry).body
		c.mu.Unlock()
		ct.End()
		return body, srcMemory, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		// Deterministic timeout behaviour: a dead context wins even if
		// the flight happens to be done too.
		if err := ctx.Err(); err != nil {
			ct.End()
			return nil, srcCompute, err
		}
		select {
		case <-fl.done:
			ct.End()
			if fl.err != nil {
				// A joiner of a failed computation got nothing for
				// free: report a miss, so hits + misses + sheds +
				// timeouts + errors keeps summing to requests. (This
				// used to report a hit, inflating the hit counter on
				// every error burst.)
				return nil, srcCompute, fl.err
			}
			rt.AdoptSolve(fl.solve)
			return fl.body, srcFlight, nil
		case <-ctx.Done():
			ct.End()
			return nil, srcCompute, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	// The cache span for a flight owner covers only the bookkeeping:
	// disk reads, the solve and the write-through get their own spans.
	ct.End()

	src = srcCompute
	if c.disk != nil {
		st := rt.StartStage(obs.StageStoreRead)
		b, ok := c.disk.Get(key)
		st.End()
		if ok {
			fl.body, src = b, srcStore
		}
	}
	if src == srcCompute {
		fl.body, fl.err = compute()
		if ref, ok := rt.SolveRef(); ok {
			fl.solve = ref
		}
	}

	// A second cache slice: retiring the flight and admitting the body
	// into the LRU is cache bookkeeping too, and attributing it keeps
	// the owner's stage sums covering its span.
	ct = rt.StartStage(obs.StageCache)
	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.insertLocked(key, fl.body)
	}
	c.mu.Unlock()
	ct.End()
	if fl.err == nil && src == srcCompute && c.disk != nil {
		// Write-through before releasing waiters: once any response for
		// this digest is out the door, a warm restart can reproduce it.
		wt := rt.StartStage(obs.StageStoreWrite)
		perr := c.disk.Put(key, fl.body)
		wt.End()
		if perr != nil && c.putErrs != nil {
			c.putErrs.Inc()
		}
	}
	close(fl.done)
	return fl.body, src, fl.err
}

// insertLocked stores body under key and evicts from the cold end until
// both bounds hold. An entry larger than the whole byte budget is not
// stored at all: admitting it would evict everything else and the loop
// below would still find the cache over budget with nothing left to
// evict — the evict-loop the oversized-entry test pins down.
func (c *cache) insertLocked(key string, body []byte) {
	if c.maxEntries <= 0 {
		return
	}
	if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, body: body})
	c.bytes += int64(len(body))
	for c.ll.Len() > 1 && (c.ll.Len() > c.maxEntries || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*entry)
		delete(c.items, e.key)
		for _, a := range e.aliases {
			delete(c.alias, a)
		}
		c.bytes -= int64(len(e.body))
	}
}
