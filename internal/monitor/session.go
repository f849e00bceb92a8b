package monitor

import (
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/evlog"
	stackpkg "repro/internal/stack"
	"repro/internal/tsdb"
)

// quantizationSlack widens each window interval by half a count on
// both sides before the overlap test. Counter values are integers, so
// two windows whose means differ by less than one count are
// indistinguishable even when their dispersion intervals are
// degenerate points; the slack keeps a jitter-free series from firing
// spurious drift events.
const quantizationSlack = 0.5

// Session is one continuous monitoring run: a pinned worker measuring
// one configuration per virtual-time step, a windowed ring store of
// the corrected samples, and an append-only event log that snapshots
// and NDJSON streams read from. All mutable state is behind mu; the
// sampler goroutine is the only writer of samples.
type Session struct {
	// ID addresses the session on the wire.
	ID string

	cfg  api.SessionRequest
	cal  core.Calibration
	creq core.Request

	// stop ends the sampler early (delete, eviction, drain).
	stop     chan struct{}
	stopOnce sync.Once

	mu       sync.Mutex
	store    *tsdb.Store
	state    string
	failure  string
	baseline *tsdb.Window // drift-detection reference window
	drifts   []api.DriftInfo
	// Log is the bounded NDJSON event log streams read from. Its
	// retention covers two rings' worth of samples, so streams that
	// attach while the full log is retained (any attach within Capacity
	// samples of the start — a streaming client always does) replay the
	// complete series; later attaches replay the tail. It also carries
	// the idle accounting the registry reads: a session nobody watches
	// is idle from its last access even while its sampler still
	// produces, and eviction is what reclaims the pinned worker of an
	// abandoned session.
	*evlog.Log
}

// newSession builds a registered-but-not-yet-running session.
func newSession(id string, cfg api.SessionRequest, cal core.Calibration, now func() time.Time) (*Session, error) {
	store, err := tsdb.New(tsdb.Config{
		Capacity:   cfg.Capacity,
		WindowSize: cfg.WindowSize,
		Confidence: cfg.Confidence,
	})
	if err != nil {
		return nil, err
	}
	creq, err := cfg.Measure.Build()
	if err != nil {
		return nil, err
	}
	return &Session{
		ID:    id,
		cfg:   cfg,
		cal:   cal,
		creq:  creq,
		stop:  make(chan struct{}),
		store: store,
		state: api.SessionRunning,
		// Per Capacity samples the log gains at most one sample line
		// plus one window line per WindowSize >= 2 samples plus one
		// drift line per window, so 2x Capacity (and slack for the end
		// event) always covers a full sample ring.
		Log: evlog.New(2*cfg.Capacity+16, now),
	}, nil
}

// run is the sampler: one measurement per step on the pinned system,
// paced by IntervalMS wall time but timestamped in virtual time. The
// system is Reset once up front — the same discipline as the request
// path — so the sample series is a pure function of the configuration.
func (s *Session) run(sys *stackpkg.System) {
	sys.Reset()
	var vt float64
	interval := time.Duration(s.cfg.IntervalMS) * time.Millisecond
	for step := 0; step < s.cfg.Steps; step++ {
		select {
		case <-s.stop:
			return // the closer already wrote the end event
		default:
		}
		s.creq.Seed = s.cfg.Measure.Seed + uint64(step)
		m, err := sys.Measure(s.creq)
		if err != nil {
			s.close(api.SessionFailed, err.Error())
			return
		}
		raw := float64(m.Deltas[0])
		if inj := s.cfg.Inject; inj != nil && step >= inj.AfterStep {
			raw += inj.Offset
		}
		vt += m.Cycles
		s.observe(tsdb.Sample{
			Step:  step,
			Time:  vt,
			Raw:   raw,
			Value: raw - s.cal.Offset,
		})
		if interval > 0 && step+1 < s.cfg.Steps {
			t := time.NewTimer(interval)
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
		}
	}
	s.close(api.SessionDone, "")
}

// observe appends one sample to the store and the event log, emitting
// window and drift events as windows complete. Dropped silently if the
// session already ended (a closer won the race mid-measurement): the
// log appends atomically and refuses events after its end event.
func (s *Session) observe(p tsdb.Sample) {
	s.mu.Lock()
	if s.Ended() {
		s.mu.Unlock()
		return
	}
	w, completed := s.store.Append(p)
	sp := samplePoint(p)
	events := []any{api.StreamEvent{Type: api.StreamSample, Sample: &sp}}
	if completed {
		wi := windowInfo(w)
		events = append(events, api.StreamEvent{Type: api.StreamWindow, Window: &wi})
		if drift, ok := s.detectLocked(w); ok {
			s.drifts = append(s.drifts, drift)
			events = append(events, api.StreamEvent{Type: api.StreamDrift, Drift: &drift})
		}
	}
	s.mu.Unlock()
	s.Append(events...)
}

// detectLocked runs the drift rule on a completed window: the first
// window becomes the baseline; a later window whose (slack-widened)
// confidence interval fails to overlap the baseline's is a drift
// event, and becomes the new baseline so a persistent shift fires
// once, not once per window.
func (s *Session) detectLocked(w tsdb.Window) (api.DriftInfo, bool) {
	if s.baseline == nil {
		base := w
		s.baseline = &base
		return api.DriftInfo{}, false
	}
	b := *s.baseline
	if overlap(b, w) {
		return api.DriftInfo{}, false
	}
	base := w
	s.baseline = &base
	return api.DriftInfo{
		Step:       w.LastStep,
		FromWindow: b.Index,
		Window:     w.Index,
		Shift:      w.Est.Corrected - b.Est.Corrected,
		Baseline:   api.EstimateInfoFrom(s.cfg.Measure.Events[0], b.Est),
		Current:    api.EstimateInfoFrom(s.cfg.Measure.Events[0], w.Est),
	}, true
}

// overlap reports whether two windows' slack-widened confidence
// intervals intersect.
func overlap(a, b tsdb.Window) bool {
	return a.Est.CI.Lo-quantizationSlack <= b.Est.CI.Hi+quantizationSlack &&
		b.Est.CI.Lo-quantizationSlack <= a.Est.CI.Hi+quantizationSlack
}

// Stop ends the session with an end event carrying reason; the
// registry calls it on delete, eviction, and drain.
func (s *Session) Stop(reason string) { s.close(reason, "") }

// close ends the session with a final end event carrying the reason.
// Idempotent: the first closer (sampler completion, delete, eviction,
// drain, failure) wins — the log's End gate decides the race — and
// later calls are no-ops.
func (s *Session) close(state, failure string) {
	if !s.End(api.StreamEvent{Type: api.StreamEnd, Reason: state, Error: failure}) {
		return
	}
	s.mu.Lock()
	s.state = state
	s.failure = failure
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
}

// Config returns the normalized session configuration.
func (s *Session) Config() api.SessionRequest { return s.cfg }

// State returns the current session state.
func (s *Session) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Snapshot reports the session's current state and retained rings.
func (s *Session) Snapshot() api.SessionSnapshot {
	s.Touch()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := api.SessionSnapshot{
		ID:     s.ID,
		Config: s.cfg,
		State:  s.state,
		Total:  s.store.Total(),
		Drifts: append([]api.DriftInfo(nil), s.drifts...),
		Calibration: &api.CalibrationInfo{
			Offset:   s.cal.Offset,
			Strategy: s.cal.Strategy,
			Samples:  s.cal.Samples,
		},
	}
	for _, p := range s.store.Samples() {
		snap.Samples = append(snap.Samples, samplePoint(p))
	}
	for _, w := range s.store.Windows() {
		snap.Windows = append(snap.Windows, windowInfo(w))
	}
	return snap
}

// samplePoint converts a store sample to its wire form.
func samplePoint(p tsdb.Sample) api.SamplePoint {
	return api.SamplePoint{Step: p.Step, Time: p.Time, Raw: p.Raw, Value: p.Value}
}

// windowInfo converts a window summary to its wire form.
func windowInfo(w tsdb.Window) api.WindowInfo {
	return api.WindowInfo{
		Index:     w.Index,
		FirstStep: w.FirstStep,
		LastStep:  w.LastStep,
		Start:     w.Start,
		End:       w.End,
		Min:       w.Min,
		Max:       w.Max,
		Estimate:  api.EstimateInfoFrom("", w.Est),
	}
}
