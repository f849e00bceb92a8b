// Package lifecycle is the registry behind the service's stateful,
// streaming resources: monitoring sessions (internal/monitor) and
// validation campaigns (internal/campaign). Both are long-lived
// producers that clients address by ID, snapshot, stream, and delete,
// and both need the same machinery around them:
//
//   - IDs from a per-kind counter with a prefix ("s1", "c1");
//   - an active bound: only entries still producing count, because
//     each one holds service capacity (a pinned worker, a sweep);
//   - a retention bound of RetainedPerActive times the active bound on
//     ended entries kept for snapshots and stream replay, met by
//     dropping the least recently accessed ended entry, never an
//     active one;
//   - an idle janitor (Sweep) that evicts entries nobody watches;
//   - a drain (Close) that ends every entry and waits for every
//     producer goroutine.
//
// Registry[T] owns all of that once. A kind's package keeps only what
// differs: how an entry is built and run, and its error sentinels,
// whose texts go out in the HTTP error bodies.
package lifecycle

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
)

// RetainedPerActive scales the active bound into the bound on the
// whole map: when it holds MaxActive*RetainedPerActive entries, the
// least recently accessed ended entry is dropped to make room. Active
// entries are never displaced (they number at most MaxActive).
const RetainedPerActive = 4

// Entry is what the registry needs of a registered entry. Sessions
// and campaigns get the first three from the evlog.Log they embed.
type Entry interface {
	// Ended reports whether the entry has stopped producing.
	Ended() bool
	// LastAccess returns the last client-activity time.
	LastAccess() time.Time
	// IdleSince returns how long the entry has been without client
	// activity; zero while a stream is attached.
	IdleSince(now time.Time) time.Duration
	// Stop ends the entry with an end event carrying reason (deleted,
	// evicted, drained). Idempotent: the first ending wins.
	Stop(reason string)
}

// Errors are the sentinels a registry reports, one set per kind. Their
// texts are part of the wire contract: they reach clients in 404 and
// 503 bodies.
type Errors struct {
	// NotFound reports an unknown ID.
	NotFound error
	// TooMany reports that MaxActive entries are already producing.
	TooMany error
	// Closed reports an operation on a drained registry.
	Closed error
}

// Config parameterizes a registry for one kind of entry. The kind's
// package fills it from its own Config.
type Config struct {
	// Prefix starts every ID ("s" for sessions, "c" for campaigns).
	Prefix string
	// MaxActive bounds entries still producing. Must be positive.
	MaxActive int
	// IdleTimeout is how long an entry may go without client activity
	// before the janitor evicts it. Zero means 2 minutes.
	IdleTimeout time.Duration
	// SweepInterval is the janitor's cadence. Zero means 15 seconds;
	// negative disables the janitor (tests drive Sweep directly).
	SweepInterval time.Duration
	// Now is the registry's clock; nil means time.Now.
	Now func() time.Time
	// Errors are the kind's sentinels.
	Errors Errors
}

// Registry owns the entries of one kind. It is safe for concurrent use.
type Registry[T Entry] struct {
	cfg Config

	mu      sync.Mutex
	entries map[string]T
	nextID  int
	closed  bool

	wg          sync.WaitGroup // producer goroutines
	janitorStop chan struct{}
	janitorDone chan struct{}
}

// New builds a registry and starts its idle janitor (unless disabled).
func New[T Entry](cfg Config) *Registry[T] {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 15 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	r := &Registry[T]{cfg: cfg, entries: make(map[string]T)}
	if cfg.SweepInterval > 0 {
		r.janitorStop = make(chan struct{})
		r.janitorDone = make(chan struct{})
		go r.janitor()
	}
	return r
}

// janitor periodically evicts idle entries until Close.
func (r *Registry[T]) janitor() {
	defer close(r.janitorDone)
	t := time.NewTicker(r.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.Sweep()
		case <-r.janitorStop:
			return
		}
	}
}

// Now reads the registry's clock; entries use it for idle accounting.
func (r *Registry[T]) Now() time.Time { return r.cfg.Now() }

// Errors returns the kind's sentinels, from which the HTTP front end
// derives its status mapping.
func (r *Registry[T]) Errors() Errors { return r.cfg.Errors }

// Reserve is admission's first phase: it refuses when the registry is
// closed or MaxActive entries are producing, and otherwise allocates
// the next ID. The caller then builds the entry outside the lock —
// pinning a worker can wait — and registers it with Insert.
func (r *Registry[T]) Reserve() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.admitLocked(); err != nil {
		return "", err
	}
	r.nextID++
	return fmt.Sprintf("%s%d", r.cfg.Prefix, r.nextID), nil
}

// Insert is admission's second phase: it checks the bound again (other
// entries may have been admitted while this one was built), registers
// e under id, and starts run in a goroutine Close waits for. On
// refusal it starts nothing and returns the error; the caller releases
// whatever it built.
func (r *Registry[T]) Insert(id string, e T, run func()) error {
	r.mu.Lock()
	if err := r.admitLocked(); err != nil {
		r.mu.Unlock()
		return err
	}
	r.evictOverflowLocked()
	r.entries[id] = e
	r.wg.Add(1)
	r.mu.Unlock()

	go func() {
		defer r.wg.Done()
		run()
	}()
	return nil
}

// admitLocked is the admission rule both phases apply. Callers hold
// r.mu.
func (r *Registry[T]) admitLocked() error {
	if r.closed {
		return r.cfg.Errors.Closed
	}
	if r.activeLocked() >= r.cfg.MaxActive {
		return fmt.Errorf("%w (limit %d)", r.cfg.Errors.TooMany, r.cfg.MaxActive)
	}
	return nil
}

// activeLocked counts entries still producing. Callers hold r.mu.
func (r *Registry[T]) activeLocked() int {
	n := 0
	for _, e := range r.entries {
		if !e.Ended() {
			n++
		}
	}
	return n
}

// evictOverflowLocked keeps the map bounded: when it is full, the least
// recently accessed ended entries are forgotten to make room for one
// more. Callers hold r.mu.
func (r *Registry[T]) evictOverflowLocked() {
	for len(r.entries) >= r.cfg.MaxActive*RetainedPerActive {
		oldestID := ""
		var oldest time.Time
		for id, e := range r.entries {
			if !e.Ended() {
				continue
			}
			if at := e.LastAccess(); oldestID == "" || at.Before(oldest) {
				oldestID, oldest = id, at
			}
		}
		if oldestID == "" {
			return // all active; the admission bound keeps this impossible
		}
		delete(r.entries, oldestID)
	}
}

// Get returns an entry by ID.
func (r *Registry[T]) Get(id string) (T, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return e, fmt.Errorf("%w: %s", r.cfg.Errors.NotFound, id)
	}
	return e, nil
}

// Delete removes an entry: it stops producing, attached streams
// receive their remaining events plus a deleted end event, and the ID
// is forgotten.
func (r *Registry[T]) Delete(id string) error {
	r.mu.Lock()
	e, ok := r.entries[id]
	delete(r.entries, id)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", r.cfg.Errors.NotFound, id)
	}
	e.Stop(api.SessionDeleted)
	return nil
}

// Stats snapshots the registry's gauges under one lock acquisition:
// active is entries still producing, retained is every registered
// entry including ended ones kept for replay. One snapshot feeds both
// /healthz and /metrics so the views agree.
func (r *Registry[T]) Stats() (active, retained int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.activeLocked(), len(r.entries)
}

// Sweep evicts every entry that has been idle (no snapshot and no
// attached stream) longer than IdleTimeout, and returns how many it
// evicted. The janitor calls this periodically; tests call it directly
// with an injected clock.
func (r *Registry[T]) Sweep() int {
	now := r.cfg.Now()
	r.mu.Lock()
	var evict []T
	for id, e := range r.entries {
		if e.IdleSince(now) > r.cfg.IdleTimeout {
			evict = append(evict, e)
			delete(r.entries, id)
		}
	}
	r.mu.Unlock()
	for _, e := range evict {
		e.Stop(api.SessionEvicted)
	}
	return len(evict)
}

// Close drains the registry: the janitor stops, every entry ends with a
// drained end event (so attached streams terminate cleanly), and Close
// blocks until every producer goroutine has exited. Idempotent.
// Entries stay readable afterwards — snapshots and stream replays of
// already-produced events still work — but no new entry is admitted.
func (r *Registry[T]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	entries := make([]T, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()

	if r.janitorStop != nil {
		close(r.janitorStop)
		<-r.janitorDone
	}
	for _, e := range entries {
		e.Stop(api.SessionDrained)
	}
	r.wg.Wait()
}
