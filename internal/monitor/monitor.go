// Package monitor is the continuous-monitoring subsystem of the
// measurement service: long-lived sessions that observe a
// configuration over virtual time instead of answering one-shot
// requests.
//
// The paper shows counter error is not a one-shot constant — placement
// (Section 6), multiplexing phase (Section 9), and sampling interact
// with *when* a measurement happens — so a production service must
// watch the corrected estimate continuously and notice when it moves.
// A Session does exactly that: it pins one pooled worker
// (service.Pin), ticks the simulated kernel through one measurement
// per virtual-time step, corrects each raw count with the cached
// calibration, appends the sample to a windowed ring store
// (internal/tsdb), and runs confidence-interval-overlap drift
// detection over the window summaries. The Registry owns the sessions
// through the shared lifecycle registry (internal/lifecycle): it
// creates them, evicts the idle, and drains them all on shutdown so
// attached streams end cleanly.
//
// Determinism carries over from the request path: a session's sample
// series is a pure function of its normalized configuration (worker
// Reset before sampling, seeds derived from the configured base), so
// two sessions with identical configurations produce byte-identical
// event lines — the property cmd/pcload's -monitor workload
// cross-checks over live NDJSON streams.
package monitor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/lifecycle"
	"repro/internal/service"
)

// Errors reported by the registry.
var (
	// ErrTooManySessions reports that MaxSessions sessions already exist.
	ErrTooManySessions = errors.New("monitor: too many sessions")
	// ErrClosed reports an operation on a drained registry.
	ErrClosed = errors.New("monitor: registry closed")
	// ErrNotFound reports an unknown session ID.
	ErrNotFound = errors.New("monitor: no such session")
)

// pinTimeout bounds how long opening a session may wait for a free
// worker.
const pinTimeout = 10 * time.Second

// Config sizes a registry.
type Config struct {
	// MaxSessions bounds *active* sessions — ones still producing, each
	// pinning a pooled worker — so the bound protects /measure traffic
	// from starvation. Finished sessions stay queryable without counting
	// against it (their retention is bounded separately and by idle
	// eviction). Zero means 16.
	MaxSessions int
	// IdleTimeout is how long a session may go without client activity
	// (snapshot, attached stream) before the janitor evicts it. Zero
	// means 2 minutes.
	IdleTimeout time.Duration
	// SweepInterval is the janitor's cadence. Zero means 15 seconds;
	// negative disables the janitor (tests drive Sweep directly).
	SweepInterval time.Duration
	// Now is the registry's clock; nil means time.Now. Tests inject a
	// fake clock to drive eviction deterministically.
	Now func() time.Time
}

// Registry owns the monitoring sessions of one service instance: the
// lifecycle registry's IDs, bounds, janitor, and drain, plus how a
// session is opened. It is safe for concurrent use.
type Registry struct {
	*lifecycle.Registry[*Session]
	svc *service.Service
}

// NewRegistry builds a registry over svc's worker pools and starts the
// idle-session janitor (unless disabled).
func NewRegistry(svc *service.Service, cfg Config) *Registry {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 16
	}
	return &Registry{
		Registry: lifecycle.New[*Session](lifecycle.Config{
			Prefix:        "s",
			MaxActive:     cfg.MaxSessions,
			IdleTimeout:   cfg.IdleTimeout,
			SweepInterval: cfg.SweepInterval,
			Now:           cfg.Now,
			Errors:        lifecycle.Errors{NotFound: ErrNotFound, TooMany: ErrTooManySessions, Closed: ErrClosed},
		}),
		svc: svc,
	}
}

// Open creates a session for req, pins a worker for it, and starts its
// sampler. The returned session is already registered and streaming.
func (r *Registry) Open(ctx context.Context, req api.SessionRequest) (*Session, error) {
	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	id, err := r.Reserve()
	if err != nil {
		return nil, err
	}

	// Pinning can wait on pool pressure and calibration can compute;
	// neither holds the registry lock, so other sessions are unaffected.
	pinCtx, cancel := context.WithTimeout(ctx, pinTimeout)
	defer cancel()
	w, err := r.svc.Pin(pinCtx, norm.Measure)
	if err != nil {
		return nil, fmt.Errorf("monitor: pinning worker: %w", err)
	}
	cal, err := w.Calibration(norm.Measure)
	if err != nil {
		w.Release()
		return nil, err
	}
	sess, err := newSession(id, norm, cal, r.Now)
	if err != nil {
		w.Release()
		return nil, err
	}

	if err := r.Insert(id, sess, func() {
		defer w.Release()
		sess.run(w.System())
	}); err != nil {
		w.Release()
		return nil, err
	}
	return sess, nil
}
