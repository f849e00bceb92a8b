package engine

import (
	"container/list"
	"sync"

	"repro/internal/isa"
)

// DefaultCacheCapacity is the compile-cache capacity used by the
// default engine. The service's whole shard matrix compiles a few dozen
// distinct programs (harnesses, kernel handlers, benchmark bodies), so
// this comfortably holds a steady state while still bounding memory.
const DefaultCacheCapacity = 256

// CacheStats is a point-in-time snapshot of compile-cache counters,
// reported next to the calibration-cache stats in /healthz.
type CacheStats struct {
	// Size and Capacity describe current occupancy.
	Size, Capacity int
	// Hits, Misses, and Evictions count lookups served from cache,
	// lookups that compiled, and entries displaced by capacity.
	Hits, Misses, Evictions int64
}

// cacheKey identifies a compiled program: content hash plus processor
// model tag. Lowering itself is model-independent today (costs are
// resolved at application time), but the key keeps the door open for
// model-specialized lowering without invalidating cached byte-identity.
type cacheKey struct {
	hash  uint64
	model string
}

// cacheEntry pairs a compiled program with the source it was compiled
// from, so hash collisions are detected by full code comparison instead
// of silently executing the wrong summary. ptrs lists the identity
// aliases registered in the cache's pointer index for this entry.
type cacheEntry struct {
	key      cacheKey
	src      *isa.Program
	compiled *program
	ptrs     []ptrKey
}

// ptrKey is the pointer-identity fast-path key: the programs a warm run
// executes keep a stable pointer across runs, so repeat lookups skip
// hashing entirely. The kernel tick handler and the perfctr and perfmon
// syscall handlers are built once per process and shared by every
// kernel (kernel.Shared); a harness is built once per worker and shape
// (core.Harnesses).
type ptrKey struct {
	p     *isa.Program
	model string
}

// maxPtrAliases bounds how many distinct pointers one entry may index.
// Each worker of a shard holds its own copy of a harness, so one entry
// is reached through as many pointers as the shard has workers (four by
// default in pcserved), and every rebuild of a harness its memo evicted
// brings one more pointer with identical content. Without a bound these
// aliases would accumulate forever. Pointers past the bound simply pay
// the hash, so a shard with more workers than this has its extra
// workers hash their harnesses on every run.
const maxPtrAliases = 4

// Cache is a bounded LRU cache of compiled programs, safe for
// concurrent use by all shards of a service.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	entries   map[cacheKey]*list.Element
	byPtr     map[ptrKey]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[cacheKey]*list.Element),
		byPtr:    make(map[ptrKey]*list.Element),
	}
}

// lookup returns the compiled form of p for the given model, compiling
// and inserting on miss. A hash collision (same key, different code)
// counts as a miss and replaces the colliding entry.
func (cc *Cache) lookup(p *isa.Program, model string) *program {
	pk := ptrKey{p: p, model: model}
	cc.mu.Lock()
	if el, ok := cc.byPtr[pk]; ok {
		cc.ll.MoveToFront(el)
		cc.hits++
		cp := el.Value.(*cacheEntry).compiled
		cc.mu.Unlock()
		return cp
	}
	cc.mu.Unlock()

	key := cacheKey{hash: hashProgram(p), model: model}
	cc.mu.Lock()
	if el, ok := cc.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		if sameCode(ent.src, p) {
			cc.addAlias(el, ent, pk)
			cc.ll.MoveToFront(el)
			cc.hits++
			cp := ent.compiled
			cc.mu.Unlock()
			return cp
		}
	}
	cc.misses++
	cc.mu.Unlock()

	// Compile outside the lock: lowering is pure, and a rare duplicate
	// compile is cheaper than serializing every shard behind it.
	cp := compile(p)

	cc.mu.Lock()
	defer cc.mu.Unlock()
	if el, ok := cc.entries[key]; ok {
		cc.dropAliases(el.Value.(*cacheEntry))
		ent := &cacheEntry{key: key, src: p, compiled: cp}
		el.Value = ent
		cc.addAlias(el, ent, pk)
		cc.ll.MoveToFront(el)
		return cp
	}
	ent := &cacheEntry{key: key, src: p, compiled: cp}
	el := cc.ll.PushFront(ent)
	cc.entries[key] = el
	cc.addAlias(el, ent, pk)
	for cc.ll.Len() > cc.capacity {
		oldest := cc.ll.Back()
		cc.ll.Remove(oldest)
		evicted := oldest.Value.(*cacheEntry)
		delete(cc.entries, evicted.key)
		cc.dropAliases(evicted)
		cc.evictions++
	}
	return cp
}

// addAlias indexes el under the pointer key, bounded per entry.
// Callers hold cc.mu.
func (cc *Cache) addAlias(el *list.Element, ent *cacheEntry, pk ptrKey) {
	if len(ent.ptrs) >= maxPtrAliases {
		return
	}
	ent.ptrs = append(ent.ptrs, pk)
	cc.byPtr[pk] = el
}

// dropAliases removes an entry's pointer-index aliases. Callers hold
// cc.mu.
func (cc *Cache) dropAliases(ent *cacheEntry) {
	for _, pk := range ent.ptrs {
		delete(cc.byPtr, pk)
	}
	ent.ptrs = nil
}

// Stats returns a snapshot of the cache counters.
func (cc *Cache) Stats() CacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return CacheStats{
		Size:      cc.ll.Len(),
		Capacity:  cc.capacity,
		Hits:      cc.hits,
		Misses:    cc.misses,
		Evictions: cc.evictions,
	}
}
