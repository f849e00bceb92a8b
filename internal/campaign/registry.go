package campaign

import (
	"errors"
	"time"

	"repro/internal/api"
	"repro/internal/bayes"
	"repro/internal/cpu"
	"repro/internal/lifecycle"
)

// Errors reported by the registry.
var (
	// ErrTooManyCampaigns reports that MaxCampaigns campaigns already run.
	ErrTooManyCampaigns = errors.New("campaign: too many campaigns")
	// ErrClosed reports an operation on a drained registry.
	ErrClosed = errors.New("campaign: registry closed")
	// ErrNotFound reports an unknown campaign ID.
	ErrNotFound = errors.New("campaign: no such campaign")
)

// Config sizes a registry.
type Config struct {
	// MaxCampaigns bounds *active* campaigns — sweeps still issuing
	// requests into the shared worker pools. Zero means 4: campaigns are
	// heavy (hundreds of measurements each), so the default is tighter
	// than the session registry's.
	MaxCampaigns int
	// IdleTimeout is how long a campaign may go without client activity
	// (snapshot, attached stream) before the janitor evicts it. Zero
	// means 2 minutes.
	IdleTimeout time.Duration
	// SweepInterval is the janitor's cadence. Zero means 15 seconds;
	// negative disables the janitor (tests drive Sweep directly).
	SweepInterval time.Duration
	// Concurrency is how many programs one campaign checks in parallel
	// (results are still emitted in program order). Zero means 2.
	Concurrency int
	// Invariants supplies the constraint model the inference cross-check
	// attacks each processor with; nil means the built-in library
	// (bayes.Library). Tests inject mis-specified models to prove the
	// campaign catches them — the planted-refutation hook.
	Invariants func(*cpu.Model) bayes.Model
	// Now is the registry's clock; nil means time.Now.
	Now func() time.Time
}

// Registry owns the campaigns of one service instance: the lifecycle
// registry's IDs, bounds, janitor, and drain, plus how a campaign is
// opened. It is safe for concurrent use.
type Registry struct {
	*lifecycle.Registry[*Campaign]
	svc  Services
	inv  func(*cpu.Model) bayes.Model
	conc int
}

// NewRegistry builds a registry over the given request paths and starts
// the idle-campaign janitor (unless disabled).
func NewRegistry(svc Services, cfg Config) *Registry {
	if cfg.MaxCampaigns <= 0 {
		cfg.MaxCampaigns = 4
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.Invariants == nil {
		cfg.Invariants = bayes.Library
	}
	return &Registry{
		Registry: lifecycle.New[*Campaign](lifecycle.Config{
			Prefix:        "c",
			MaxActive:     cfg.MaxCampaigns,
			IdleTimeout:   cfg.IdleTimeout,
			SweepInterval: cfg.SweepInterval,
			Now:           cfg.Now,
			Errors:        lifecycle.Errors{NotFound: ErrNotFound, TooMany: ErrTooManyCampaigns, Closed: ErrClosed},
		}),
		svc:  svc,
		inv:  cfg.Invariants,
		conc: cfg.Concurrency,
	}
}

// Open normalizes req, registers a campaign for it, and starts its
// sweep. The returned campaign is already streaming.
func (r *Registry) Open(req api.CampaignRequest) (*Campaign, error) {
	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	id, err := r.Reserve()
	if err != nil {
		return nil, err
	}
	camp := newCampaign(id, norm, r)
	if err := r.Insert(id, camp, camp.run); err != nil {
		camp.cancel() // refused at the second check: release its context
		return nil, err
	}
	return camp, nil
}
