package cluster

import (
	"container/list"
	"sync"
)

// answerCacheBytes bounds the front's answer cache: key, content type
// and body bytes plus a fixed overhead per entry, summed over every
// entry.
const answerCacheBytes = 8 << 20

// answerAdmitSlots sizes the admission table: one 64-bit key hash per
// slot, 512 KiB in all.
const answerAdmitSlots = 1 << 16

// answerEntryOverhead is what an entry costs beyond its key, content
// type and body bytes: the entry struct (80 bytes on 64-bit platforms),
// its list element (48) and its map slot (about 32), rounded up.
const answerEntryOverhead = 176

// answer is one stored response: a deterministic verdict (200 or 400)
// on a canonical request, and the node that produced it.
type answer struct {
	key         string
	status      int
	contentType string
	backend     string
	body        []byte
}

// answers is the front's cache of deterministic answers, keyed by
// endpoint path plus canonical request key. Identical normalized
// requests get byte-identical answers on every node, so a stored
// answer is exactly what any backend would send again.
//
// It is a byte-bounded LRU behind one mutex, with a doorkeeper in
// front: a fixed table of key hashes, indexed by the hash's low bits.
// An answer is stored only when its key's hash already sits in its
// slot, that is on the key's second forwarded sighting, so one-shot
// bodies never take space.
type answers struct {
	mu    sync.Mutex
	limit int64
	used  int64
	lru   *list.List // of *answer, most recently used first
	byKey map[string]*list.Element
	admit []uint64

	hits, misses, evictions uint64
}

// answerStats is one consistent snapshot of the cache's counters and
// size.
type answerStats struct {
	hits, misses, evictions uint64
	bytes                   int64
	entries                 int
}

// newAnswers returns an empty cache holding at most limit bytes, with
// its admission table allocated up front.
func newAnswers(limit int64) *answers {
	return &answers{
		limit: limit,
		lru:   list.New(),
		byKey: make(map[string]*list.Element),
		admit: make([]uint64, answerAdmitSlots),
	}
}

// size is the number of bytes an entry is charged.
func (a *answer) size() int64 {
	return int64(len(a.key)+len(a.contentType)+len(a.body)) + answerEntryOverhead
}

// get returns the stored answer for key and marks it most recently
// used, or nil on a miss. The returned answer is never modified.
func (c *answers) get(key string) *answer {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.lru.MoveToFront(e)
	return e.Value.(*answer)
}

// put offers a forwarded answer for key. It is stored, as an exact-size
// copy of body, only on the key's second sighting and only when it fits
// the bound; the least recently used entries are evicted to make room.
func (c *answers) put(key string, status int, contentType, backend string, body []byte) {
	a := &answer{key: key, status: status, contentType: contentType, backend: backend, body: body}
	size := a.size()
	if size > c.limit {
		return
	}
	h := hashKey(key)
	slot := &c.admit[h%answerAdmitSlots]
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[key]; ok {
		return // a concurrent twin stored it first
	}
	if *slot != h {
		*slot = h
		return
	}
	a.body = make([]byte, len(body))
	copy(a.body, body)
	c.byKey[key] = c.lru.PushFront(a)
	c.used += size
	for c.used > c.limit {
		old := c.lru.Remove(c.lru.Back()).(*answer)
		delete(c.byKey, old.key)
		c.used -= old.size()
		c.evictions++
	}
}

// stats snapshots the counters and the current size.
func (c *answers) stats() answerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return answerStats{hits: c.hits, misses: c.misses, evictions: c.evictions, bytes: c.used, entries: c.lru.Len()}
}
