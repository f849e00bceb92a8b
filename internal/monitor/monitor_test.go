package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/lifecycle"
	"repro/internal/service"
)

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

// newTestRegistry builds a registry with a small service, a fake
// clock, and the janitor disabled so tests drive Sweep directly.
func newTestRegistry(t *testing.T, cfg Config) (*Registry, *fakeClock) {
	t.Helper()
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	svc := service.New(service.Config{WorkersPerShard: 2, CalibrationRuns: 5})
	cfg.SweepInterval = -1
	cfg.Now = clock.Now
	reg := NewRegistry(svc, cfg)
	t.Cleanup(reg.Close)
	return reg, clock
}

// session configuration used throughout: small but with several
// windows' worth of samples.
func testConfig() api.SessionRequest {
	return api.SessionRequest{
		Measure:    api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr"},
		Steps:      32,
		WindowSize: 8,
	}
}

// consume drains a session's event log, returning every line and the
// end event's reason.
func consume(t *testing.T, sess *Session) (lines [][]byte, reason string) {
	t.Helper()
	sess.Subscribe()
	defer sess.Unsubscribe()
	i := 0
	deadline := time.After(30 * time.Second)
	for {
		ls, next, wait, done := sess.Events(i)
		i = next
		if len(ls) > 0 {
			lines = append(lines, ls...)
			continue
		}
		if done {
			break
		}
		select {
		case <-wait:
		case <-deadline:
			t.Fatalf("timed out waiting for session events (have %d)", i)
		}
	}
	var last api.StreamEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("unmarshal last event: %v", err)
	}
	if last.Type != api.StreamEnd {
		t.Fatalf("last event is %q, want end", last.Type)
	}
	return lines, last.Reason
}

// filterType returns the lines of one event type.
func filterType(t *testing.T, lines [][]byte, typ string) [][]byte {
	t.Helper()
	var out [][]byte
	for _, ln := range lines {
		var ev api.StreamEvent
		if err := json.Unmarshal(ln, &ev); err != nil {
			t.Fatalf("unmarshal %q: %v", ln, err)
		}
		if ev.Type == typ {
			out = append(out, ln)
		}
	}
	return out
}

// TestIdenticalSessionsStreamIdenticalSeries is the acceptance
// criterion: two sessions with the same normalized configuration
// produce byte-identical NDJSON sample series.
func TestIdenticalSessionsStreamIdenticalSeries(t *testing.T) {
	reg, _ := newTestRegistry(t, Config{})
	a, err := reg.Open(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("open a: %v", err)
	}
	b, err := reg.Open(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("open b: %v", err)
	}
	linesA, reasonA := consume(t, a)
	linesB, reasonB := consume(t, b)
	if reasonA != api.SessionDone || reasonB != api.SessionDone {
		t.Fatalf("end reasons = %q, %q, want done", reasonA, reasonB)
	}
	samplesA := filterType(t, linesA, api.StreamSample)
	samplesB := filterType(t, linesB, api.StreamSample)
	if len(samplesA) != 32 || len(samplesB) != 32 {
		t.Fatalf("sample counts = %d, %d, want 32", len(samplesA), len(samplesB))
	}
	for i := range samplesA {
		if !bytes.Equal(samplesA[i], samplesB[i]) {
			t.Fatalf("sample %d diverges:\n  a: %s\n  b: %s", i, samplesA[i], samplesB[i])
		}
	}
	// Window and drift events are deterministic too: the full logs
	// must match byte for byte (both sessions ended the same way).
	if len(linesA) != len(linesB) {
		t.Fatalf("log lengths = %d, %d", len(linesA), len(linesB))
	}
	for i := range linesA {
		if !bytes.Equal(linesA[i], linesB[i]) {
			t.Fatalf("event %d diverges:\n  a: %s\n  b: %s", i, linesA[i], linesB[i])
		}
	}
}

// TestInjectedStepChangeFlagsDrift is the acceptance criterion: a step
// change in the corrected estimate is flagged within 2 windows.
func TestInjectedStepChangeFlagsDrift(t *testing.T) {
	const injectStep = 18 // mid-window: window 2 is mixed, window 3 fully shifted
	cfg := testConfig()
	cfg.Steps = 48
	cfg.Inject = &api.InjectSpec{AfterStep: injectStep, Offset: 1_000_000}
	reg, _ := newTestRegistry(t, Config{})
	sess, err := reg.Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lines, reason := consume(t, sess)
	if reason != api.SessionDone {
		t.Fatalf("end reason = %q, want done", reason)
	}
	drifts := filterType(t, lines, api.StreamDrift)
	if len(drifts) == 0 {
		t.Fatal("injected step change produced no drift event")
	}
	var ev api.StreamEvent
	if err := json.Unmarshal(drifts[0], &ev); err != nil {
		t.Fatal(err)
	}
	injWindow := injectStep / cfg.WindowSize
	if ev.Drift.Window > injWindow+2 {
		t.Errorf("drift flagged at window %d, want within 2 of window %d", ev.Drift.Window, injWindow)
	}
	// The triggering window may straddle the injection step, so its
	// mean shift is a fraction of the full offset — but far above any
	// jitter the simulator produces.
	if ev.Drift.Shift < 100_000 {
		t.Errorf("drift shift = %v, want a large positive step", ev.Drift.Shift)
	}
	// The snapshot agrees with the stream.
	snap := sess.Snapshot()
	if len(snap.Drifts) != len(drifts) {
		t.Errorf("snapshot has %d drifts, stream %d", len(snap.Drifts), len(drifts))
	}
	if snap.State != api.SessionDone || snap.Total != 48 {
		t.Errorf("snapshot state/total = %s/%d, want done/48", snap.State, snap.Total)
	}
}

// TestStableSeriesFlagsNoDrift guards the quantization slack: a
// steady configuration must not fire drift events on integer jitter.
func TestStableSeriesFlagsNoDrift(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 64
	reg, _ := newTestRegistry(t, Config{})
	sess, err := reg.Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	lines, _ := consume(t, sess)
	if drifts := filterType(t, lines, api.StreamDrift); len(drifts) != 0 {
		t.Errorf("stable series fired %d drift events: %s", len(drifts), drifts[0])
	}
}

func TestIdleEviction(t *testing.T) {
	reg, clock := newTestRegistry(t, Config{IdleTimeout: time.Minute})
	sess, err := reg.Open(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	consume(t, sess) // session runs to completion and is now idle

	if n := reg.Sweep(); n != 0 {
		t.Fatalf("fresh session evicted (%d)", n)
	}
	clock.Advance(2 * time.Minute)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d sessions, want 1", n)
	}
	if _, err := reg.Get(sess.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after eviction: %v, want ErrNotFound", err)
	}
	if _, n := reg.Stats(); n != 0 {
		t.Errorf("registry still holds %d sessions", n)
	}
}

func TestAttachedStreamPreventsEviction(t *testing.T) {
	reg, clock := newTestRegistry(t, Config{IdleTimeout: time.Minute})
	sess, err := reg.Open(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	sess.Subscribe()
	defer sess.Unsubscribe()
	clock.Advance(time.Hour)
	if n := reg.Sweep(); n != 0 {
		t.Errorf("Sweep evicted %d subscribed sessions, want 0", n)
	}
}

// TestDeleteWithAttachedStream deletes a still-producing session while
// a stream is attached: the stream must end cleanly with a deleted
// end event, and the sampler goroutine must exit.
func TestDeleteWithAttachedStream(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.Steps = 10_000
	cfg.IntervalMS = 5 // paced: still producing when we delete
	reg, _ := newTestRegistry(t, Config{})
	sess, err := reg.Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	type result struct {
		reason  string
		samples int
	}
	got := make(chan result, 1)
	go func() {
		lines, reason := consume(t, sess)
		got <- result{reason, len(filterType(t, lines, api.StreamSample))}
	}()

	// Let a few samples through, then delete mid-stream.
	waitFor(t, func() bool { return sess.Snapshot().Total >= 3 })
	if err := reg.Delete(sess.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
	res := <-got
	if res.reason != api.SessionDeleted {
		t.Errorf("stream end reason = %q, want deleted", res.reason)
	}
	if res.samples == 0 || res.samples >= cfg.Steps {
		t.Errorf("stream delivered %d samples, want a partial series", res.samples)
	}
	if err := reg.Delete(sess.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete: %v, want ErrNotFound", err)
	}
	assertNoGoroutineLeak(t, before)
}

// TestDrainClosesStreams shuts the registry down under open streams:
// every stream ends with a drained end event and no goroutine leaks.
func TestDrainClosesStreams(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig()
	cfg.Steps = 10_000
	cfg.IntervalMS = 5
	reg, _ := newTestRegistry(t, Config{})

	var sessions []*Session
	for i := 0; i < 2; i++ {
		sess, err := reg.Open(context.Background(), cfg)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		sessions = append(sessions, sess)
	}
	reasons := make(chan string, len(sessions))
	for _, sess := range sessions {
		go func(sess *Session) {
			_, reason := consume(t, sess)
			reasons <- reason
		}(sess)
	}
	waitFor(t, func() bool {
		for _, sess := range sessions {
			if sess.Snapshot().Total < 2 {
				return false
			}
		}
		return true
	})

	reg.Close()
	for range sessions {
		if reason := <-reasons; reason != api.SessionDrained {
			t.Errorf("stream end reason = %q, want drained", reason)
		}
	}
	// Close is idempotent and the registry rejects new sessions.
	reg.Close()
	if _, err := reg.Open(context.Background(), testConfig()); !errors.Is(err, ErrClosed) {
		t.Errorf("Open after Close: %v, want ErrClosed", err)
	}
	assertNoGoroutineLeak(t, before)
}

func TestSessionLimit(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 10_000
	cfg.IntervalMS = 5
	reg, _ := newTestRegistry(t, Config{MaxSessions: 1})
	if _, err := reg.Open(context.Background(), cfg); err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := reg.Open(context.Background(), cfg); !errors.Is(err, ErrTooManySessions) {
		t.Errorf("second open: %v, want ErrTooManySessions", err)
	}
}

// TestFinishedSessionsDoNotCountAgainstLimit: the limit bounds pinned
// workers, so a completed (but still queryable) session must not
// block new ones.
func TestFinishedSessionsDoNotCountAgainstLimit(t *testing.T) {
	reg, _ := newTestRegistry(t, Config{MaxSessions: 1})
	first, err := reg.Open(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	consume(t, first) // runs to completion; worker released
	second, err := reg.Open(context.Background(), testConfig())
	if err != nil {
		t.Fatalf("open after first finished: %v", err)
	}
	consume(t, second)
	// Both stay queryable: finished sessions are retained, not leaked
	// into the active budget.
	if _, n := reg.Stats(); n != 2 {
		t.Errorf("registry holds %d sessions, want 2", n)
	}
}

// TestRetainedSessionsStayBounded floods the registry with short
// sessions: the map must stay below the retention cap by displacing
// the least recently accessed finished sessions.
func TestRetainedSessionsStayBounded(t *testing.T) {
	reg, _ := newTestRegistry(t, Config{MaxSessions: 2})
	cfg := testConfig()
	cfg.Steps = 4 // quick
	for i := 0; i < 3*lifecycle.RetainedPerActive; i++ {
		sess, err := reg.Open(context.Background(), cfg)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		consume(t, sess)
	}
	if _, n := reg.Stats(); n > 2*lifecycle.RetainedPerActive {
		t.Errorf("registry retains %d sessions, want <= %d", n, 2*lifecycle.RetainedPerActive)
	}
}

// TestLateAttachReplaysRetainedTail: a reader that starts before the
// log's retention window resumes from the oldest retained line
// instead of stalling or re-reading.
func TestLateAttachReplaysRetainedTail(t *testing.T) {
	cfg := testConfig()
	cfg.Steps = 64
	cfg.Capacity = 16 // logCap 2*16+16 = 48 < ~73 emitted lines
	cfg.WindowSize = 8
	reg, _ := newTestRegistry(t, Config{})
	sess, err := reg.Open(context.Background(), cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Attach only after the session finished, so the retention window
	// has certainly slid past the early lines.
	waitFor(t, func() bool { return sess.State() == api.SessionDone })
	lines, reason := consume(t, sess)
	if reason != api.SessionDone {
		t.Fatalf("end reason = %q", reason)
	}
	samples := filterType(t, lines, api.StreamSample)
	if len(samples) == 0 || len(samples) >= 64 {
		t.Errorf("late attach delivered %d samples, want a non-empty strict tail", len(samples))
	}
	var first api.StreamEvent
	if err := json.Unmarshal(samples[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Sample.Step == 0 {
		t.Error("tail replay starts at step 0; expected older lines to be dropped")
	}
	var last api.StreamEvent
	if err := json.Unmarshal(samples[len(samples)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Sample.Step != 63 {
		t.Errorf("tail replay ends at step %d, want 63", last.Sample.Step)
	}
}

func TestOpenValidatesRequest(t *testing.T) {
	reg, _ := newTestRegistry(t, Config{})
	bad := testConfig()
	bad.WindowSize = 1
	if _, err := reg.Open(context.Background(), bad); !errors.Is(err, api.ErrBadRequest) {
		t.Errorf("Open(bad) = %v, want ErrBadRequest", err)
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// assertNoGoroutineLeak polls until the goroutine count returns to the
// baseline (allowing runtime helpers), failing with stacks otherwise.
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	t.Errorf("goroutine leak: %d before, %d after\n%s", before, n, buf)
}
