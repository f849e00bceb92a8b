package lifecycle

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/evlog"
)

var stubErrors = Errors{
	NotFound: errors.New("stub: no such entry"),
	TooMany:  errors.New("stub: too many entries"),
	Closed:   errors.New("stub: registry closed"),
}

// stub is the smallest Entry: an event log for the registry's idle
// accounting, and a stop channel its producer waits on.
type stub struct {
	*evlog.Log
	stop   chan struct{}
	reason atomic.Value // the reason the entry ended with
}

func newStub(now func() time.Time) *stub {
	return &stub{Log: evlog.New(8, now), stop: make(chan struct{})}
}

// Stop ends the entry and releases its producer; the first ending wins.
func (s *stub) Stop(reason string) {
	if s.End(reason) {
		s.reason.Store(reason)
		close(s.stop)
	}
}

// finish ends the entry the way a producer that ran to completion does.
func (s *stub) finish() { s.Stop(api.SessionDone) }

// stoppedWith returns the reason the entry ended with, "" if none.
func (s *stub) stoppedWith() string {
	r, _ := s.reason.Load().(string)
	return r
}

// fakeClock is an injectable clock for deterministic idle accounting.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestRegistry builds a stub registry with the janitor disabled and
// a fake clock.
func newTestRegistry(t *testing.T, maxActive int) (*Registry[*stub], *fakeClock) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	r := New[*stub](Config{
		Prefix:        "x",
		MaxActive:     maxActive,
		IdleTimeout:   time.Minute,
		SweepInterval: -1,
		Now:           clock.Now,
		Errors:        stubErrors,
	})
	t.Cleanup(r.Close)
	return r, clock
}

// openActive admits an entry whose producer runs until it is stopped.
func openActive(t *testing.T, r *Registry[*stub]) (string, *stub) {
	t.Helper()
	id, err := r.Reserve()
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	s := newStub(r.Now)
	if err := r.Insert(id, s, func() { <-s.stop }); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return id, s
}

// openEnded admits an entry that has already finished producing.
func openEnded(t *testing.T, r *Registry[*stub]) (string, *stub) {
	t.Helper()
	id, err := r.Reserve()
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	s := newStub(r.Now)
	s.finish()
	if err := r.Insert(id, s, func() {}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return id, s
}

func TestIDsCarryThePrefix(t *testing.T) {
	r, _ := newTestRegistry(t, 4)
	for want := 1; want <= 3; want++ {
		if id, _ := openEnded(t, r); id != fmt.Sprintf("x%d", want) {
			t.Fatalf("ID = %q, want x%d", id, want)
		}
	}
}

// TestOnlyActiveEntriesCountAgainstTheBound: the bound limits entries
// still producing; an ended entry stays registered without holding a
// slot.
func TestOnlyActiveEntriesCountAgainstTheBound(t *testing.T) {
	r, _ := newTestRegistry(t, 2)
	_, a := openActive(t, r)
	openActive(t, r)
	_, err := r.Reserve()
	if !errors.Is(err, stubErrors.TooMany) || err.Error() != "stub: too many entries (limit 2)" {
		t.Fatalf("Reserve over the bound: %v", err)
	}
	a.finish() // finished, still retained
	if _, err := r.Reserve(); err != nil {
		t.Fatalf("Reserve after an entry ended: %v", err)
	}
	if active, retained := r.Stats(); active != 1 || retained != 2 {
		t.Errorf("Stats = %d active, %d retained, want 1, 2", active, retained)
	}
}

// TestSecondCheckRefusesAtInsert: admission is two-phase, and the
// bound is checked again when the built entry is inserted.
func TestSecondCheckRefusesAtInsert(t *testing.T) {
	r, _ := newTestRegistry(t, 1)
	id, err := r.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	openActive(t, r) // admitted while the first was being built
	s := newStub(r.Now)
	if err := r.Insert(id, s, func() { t.Error("refused entry started") }); !errors.Is(err, stubErrors.TooMany) {
		t.Fatalf("Insert over the bound: %v", err)
	}
	if _, err := r.Get(id); !errors.Is(err, stubErrors.NotFound) {
		t.Errorf("refused entry registered: %v", err)
	}
}

// TestRetentionEvictsLeastRecentlyAccessedEnded fills the map to its
// retention bound: the next insert drops the least recently accessed
// ended entry — not the oldest one, and never the active one even
// though it was accessed longest ago.
func TestRetentionEvictsLeastRecentlyAccessedEnded(t *testing.T) {
	r, clock := newTestRegistry(t, 2)
	activeID, active := openActive(t, r)
	defer active.Stop(api.SessionDeleted) // even if a fault displaced it
	var ended []string
	var first *stub
	for len(ended) < 2*RetainedPerActive-1 {
		clock.Advance(time.Second)
		id, s := openEnded(t, r)
		if first == nil {
			first = s
		}
		ended = append(ended, id)
	}
	clock.Advance(time.Second)
	first.Touch() // the oldest ended entry is now the most recently read

	clock.Advance(time.Second)
	openEnded(t, r)
	if _, retained := r.Stats(); retained != 2*RetainedPerActive {
		t.Errorf("retained = %d, want %d", retained, 2*RetainedPerActive)
	}
	if _, err := r.Get(activeID); err != nil {
		t.Errorf("active entry displaced: %v", err)
	}
	if _, err := r.Get(ended[0]); err != nil {
		t.Errorf("recently read entry displaced: %v", err)
	}
	if _, err := r.Get(ended[1]); !errors.Is(err, stubErrors.NotFound) {
		t.Errorf("least recently accessed ended entry kept: %v", err)
	}
}

// TestSweepHonoursIdleTimeout drives the janitor's rule with the fake
// clock: nothing is evicted before IdleTimeout, an attached stream
// keeps an entry, and an idle entry — active or not — is evicted and
// stopped.
func TestSweepHonoursIdleTimeout(t *testing.T) {
	r, clock := newTestRegistry(t, 4)
	idleID, idle := openActive(t, r)
	_, watched := openActive(t, r)
	watched.Subscribe()
	defer watched.Unsubscribe()

	clock.Advance(59 * time.Second)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("Sweep before the timeout evicted %d", n)
	}
	clock.Advance(2 * time.Second)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep after the timeout evicted %d, want 1", n)
	}
	if _, err := r.Get(idleID); !errors.Is(err, stubErrors.NotFound) {
		t.Errorf("evicted entry still addressable: %v", err)
	}
	if got := idle.stoppedWith(); got != api.SessionEvicted {
		t.Errorf("evicted entry stopped with %q", got)
	}
	if got := watched.stoppedWith(); got != "" {
		t.Errorf("watched entry stopped with %q", got)
	}
}

func TestSecondDeleteIsNotFound(t *testing.T) {
	r, _ := newTestRegistry(t, 4)
	id, s := openActive(t, r)
	if err := r.Delete(id); err != nil {
		t.Fatal(err)
	}
	if got := s.stoppedWith(); got != api.SessionDeleted {
		t.Errorf("deleted entry stopped with %q", got)
	}
	err := r.Delete(id)
	if !errors.Is(err, stubErrors.NotFound) || err.Error() != "stub: no such entry: "+id {
		t.Errorf("second Delete: %v", err)
	}
}

// TestCloseDrains: Close ends every entry with drained, waits for every
// producer to exit, is idempotent, and admits nothing afterwards.
func TestCloseDrains(t *testing.T) {
	r, _ := newTestRegistry(t, 4)
	var running atomic.Int32
	var entries []*stub
	for i := 0; i < 3; i++ {
		id, err := r.Reserve()
		if err != nil {
			t.Fatal(err)
		}
		s := newStub(r.Now)
		running.Add(1)
		if err := r.Insert(id, s, func() {
			defer running.Add(-1)
			<-s.stop
			time.Sleep(10 * time.Millisecond) // a producer that takes a while to exit
		}); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, s)
	}
	r.Close()
	if n := running.Load(); n != 0 {
		t.Errorf("Close returned with %d producers running", n)
	}
	for i, s := range entries {
		if got := s.stoppedWith(); got != api.SessionDrained {
			t.Errorf("entry %d stopped with %q, want drained", i, got)
		}
	}
	r.Close()
	if _, err := r.Reserve(); !errors.Is(err, stubErrors.Closed) {
		t.Errorf("Reserve after Close: %v", err)
	}
	if _, retained := r.Stats(); retained != 3 {
		t.Errorf("drained entries not readable: %d retained", retained)
	}
}

// TestInsertAfterCloseStartsNothing: an entry reserved before Close and
// inserted after it is refused with the closed error, never registered,
// and its producer never runs.
func TestInsertAfterCloseStartsNothing(t *testing.T) {
	r, _ := newTestRegistry(t, 4)
	id, err := r.Reserve()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	started := make(chan struct{})
	if err := r.Insert(id, newStub(r.Now), func() { close(started) }); !errors.Is(err, stubErrors.Closed) {
		t.Fatalf("Insert after Close: %v", err)
	}
	if active, retained := r.Stats(); active != 0 || retained != 0 {
		t.Errorf("Stats = %d, %d after a refused insert", active, retained)
	}
	select {
	case <-started:
		t.Error("refused entry's producer ran")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestConcurrentOpenClose races admissions, lookups, deletes and sweeps
// against Close (run it under -race): every admitted entry ends, every
// producer exits before Close returns, and the registry never holds
// more active entries than its bound.
func TestConcurrentOpenClose(t *testing.T) {
	const maxActive = 3
	r, clock := newTestRegistry(t, maxActive)
	var running atomic.Int32
	var mu sync.Mutex
	var admitted []*stub
	var wg, warm sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		warm.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i == 1 {
					warm.Done()
				}
				id, err := r.Reserve()
				if err != nil {
					if !errors.Is(err, stubErrors.TooMany) && !errors.Is(err, stubErrors.Closed) {
						t.Errorf("Reserve: %v", err)
					}
					continue
				}
				s := newStub(r.Now)
				running.Add(1)
				if err := r.Insert(id, s, func() {
					defer running.Add(-1)
					<-s.stop
				}); err != nil {
					running.Add(-1)
					continue
				}
				mu.Lock()
				admitted = append(admitted, s)
				mu.Unlock()
				if active, _ := r.Stats(); active > maxActive {
					t.Errorf("%d active entries over a bound of %d", active, maxActive)
				}
				switch (g + i) % 3 {
				case 0:
					r.Delete(id)
				case 1:
					s.finish()
				}
				if _, err := r.Get(id); err != nil && !errors.Is(err, stubErrors.NotFound) {
					t.Errorf("Get: %v", err)
				}
				if i%10 == 0 {
					clock.Advance(time.Minute)
					r.Sweep()
				}
			}
		}(g)
	}
	warm.Wait()
	r.Close() // mid-run: every goroutine has 49 rounds to go
	wg.Wait()
	if n := running.Load(); n != 0 {
		t.Errorf("%d producers still running after Close", n)
	}
	for _, s := range admitted {
		if !s.Ended() {
			t.Error("admitted entry still producing after Close")
		}
	}
}
