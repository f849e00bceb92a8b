// Package api defines the wire types of the measurement service: the
// JSON requests and responses exchanged by cmd/pcserved and its
// clients, plus the parsing and normalization that turn wire strings
// (processor tags, stack codes, benchmark specs, pattern codes) into
// the simulator's vocabulary.
//
// Every request normalizes to a canonical form with all defaults made
// explicit; the canonical form's Key is the identity used for request
// coalescing and calibration caching, so two requests that mean the
// same measurement always share one execution.
//
// The analyze types (analyze.go) extend the vocabulary with the error
// model of internal/accuracy: batched analysis items whose results are
// corrected estimates with confidence intervals, and the accuracy
// annotation every measurement response carries.
package api

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/campaign/gen"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stack"
)

// ErrBadRequest marks validation failures: the request is malformed and
// retrying it unchanged cannot succeed. Servers map it to HTTP 400.
var ErrBadRequest = errors.New("bad request")

// badf returns a validation error wrapping ErrBadRequest.
func badf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// Defaults applied by MeasureRequest.Normalized.
const (
	// DefaultPattern is the start-read pattern, supported by every stack.
	DefaultPattern = "ar"
	// DefaultMode counts user-mode events only, the paper's main setting.
	DefaultMode = "user"
	// DefaultRuns is the repetition count when the request leaves it 0.
	DefaultRuns = 1
	// DefaultSeed is the base seed when the request leaves it 0.
	DefaultSeed = 1
	// MaxRuns bounds the repetitions a single request may ask for.
	MaxRuns = 10000
	// MaxBenchIterations bounds benchmark loop sizes so one request
	// cannot monopolize a worker.
	MaxBenchIterations = 100_000_000
)

// DefaultEvent is the event counted when the request names none.
const DefaultEvent = "INSTR_RETIRED"

// MeasureRequest asks the service for a repeated measurement of one
// configuration. String fields use the paper's codes: processor tags
// PD/CD/K8, stack codes pm/pc/PLpm/PLpc/PHpm/PHpc, benchmark specs
// null/loop:N/array:N, pattern codes ar/ao/rr/ro, and modes
// user/user+kernel/kernel.
type MeasureRequest struct {
	Processor string   `json:"processor"`
	Stack     string   `json:"stack"`
	Bench     string   `json:"bench"`
	Pattern   string   `json:"pattern,omitempty"`
	Mode      string   `json:"mode,omitempty"`
	Events    []string `json:"events,omitempty"`
	Opt       int      `json:"opt,omitempty"`
	Runs      int      `json:"runs,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	// Calibrate asks the service to estimate (or fetch from its cache)
	// the configuration's fixed error and report calibrated errors.
	Calibrate bool `json:"calibrate,omitempty"`
	// NoTSC disables the perfctr TSC fast-read path (the Figure 4
	// study). Meaningless on perfmon-backed stacks.
	NoTSC bool `json:"notsc,omitempty"`
	// Engine selects the execution engine: "compiled" (the default) or
	// "interpreter". Engines are conformance-tested to produce
	// byte-identical measurements, so the choice never changes a result —
	// it exists for cross-checking and for pinning down engine bugs.
	Engine string `json:"engine,omitempty"`
	// Trace asks the service to echo a per-request span trace on the
	// response. Tracing is observability, not measurement: Normalized
	// strips the flag, so traced and untraced requests share one
	// canonical Key (and therefore coalesce together), and the echoed
	// request never reports it. See docs/OBSERVABILITY.md.
	Trace bool `json:"trace,omitempty"`
}

// Engine selector values for MeasureRequest.Engine.
const (
	// EngineInterpreter is the per-instruction reference engine.
	EngineInterpreter = "interpreter"
	// EngineCompiled is the block-dispatch engine (the default).
	EngineCompiled = "compiled"
)

// Normalized returns the request with every default made explicit and
// every field validated. The normalized form is canonical: requests
// that mean the same measurement normalize identically.
func (r MeasureRequest) Normalized() (MeasureRequest, error) {
	model, err := cpu.ModelByTag(r.Processor)
	if err != nil {
		return r, badf("api: bad processor %q (want PD, CD, or K8)", r.Processor)
	}
	if !validStack(r.Stack) {
		return r, badf("api: bad stack %q (want one of %s)", r.Stack, strings.Join(stack.Codes, ", "))
	}
	if strings.HasSuffix(r.Stack, "pm") {
		// The TSC fast-read path exists only in perfctr; on
		// perfmon-backed stacks NoTSC is meaningless, so canonicalize
		// it away — otherwise equivalent requests would land on
		// different shards and duplicate worker pools.
		r.NoTSC = false
	}
	if r.Bench == "" {
		r.Bench = "null"
	}
	if r.Bench, err = canonicalBench(r.Bench); err != nil {
		return r, err
	}
	if r.Pattern == "" {
		r.Pattern = DefaultPattern
	}
	if _, err := core.PatternByCode(r.Pattern); err != nil {
		return r, badf("api: bad pattern %q (want ar, ao, rr, ro)", r.Pattern)
	}
	if r.Mode == "" {
		r.Mode = DefaultMode
	}
	mode, err := ParseMode(r.Mode)
	if err != nil {
		return r, badf("%v", err)
	}
	r.Mode = mode.String()
	if len(r.Events) == 0 {
		r.Events = []string{DefaultEvent}
	}
	if len(r.Events) > model.NumProgrammable {
		return r, badf("api: %d events exceed the %d programmable counters of %s",
			len(r.Events), model.NumProgrammable, model.Tag)
	}
	events := make([]string, len(r.Events))
	for i, name := range r.Events {
		ev, err := cpu.EventByName(name)
		if err != nil {
			return r, badf("api: %v", err)
		}
		if !cpu.SupportsEvent(model.Arch, ev) {
			return r, badf("api: event %s not supported on %s", ev, model.Arch)
		}
		events[i] = ev.String()
	}
	r.Events = events
	if r.Opt < 0 || r.Opt > 3 {
		return r, badf("api: optimization level %d out of range 0-3", r.Opt)
	}
	if r.Runs == 0 {
		r.Runs = DefaultRuns
	}
	if r.Runs < 0 || r.Runs > MaxRuns {
		return r, badf("api: runs %d out of range 1-%d", r.Runs, MaxRuns)
	}
	if r.Seed == 0 {
		r.Seed = DefaultSeed
	}
	switch r.Engine {
	case "", EngineInterpreter:
	case EngineCompiled:
		// The compiled engine is the default; canonicalizing it to ""
		// keeps the request key — and therefore coalescing and response
		// caches — shared with requests that never named an engine.
		// Engines produce byte-identical measurements, so sharing is safe.
		r.Engine = ""
	default:
		return r, badf("api: bad engine %q (want %s or %s)", r.Engine, EngineInterpreter, EngineCompiled)
	}
	// Tracing never changes what is measured, so it is canonicalized
	// away entirely: the service captures the caller's wish before
	// normalizing, and the canonical request — the coalescing identity
	// and the echoed body — is trace-free (fuzz-verified).
	r.Trace = false
	return r, nil
}

// Key returns the canonical identity of a normalized request. Two
// requests with equal keys produce byte-identical responses, so the key
// is safe to use for coalescing concurrent duplicates and for response
// caches.
func (r MeasureRequest) Key() string {
	key := fmt.Sprintf("%s|%s|%s|%s|%s|%s|O%d|r%d|s%d|c%v|t%v",
		r.Processor, r.Stack, r.Bench, r.Pattern, r.Mode,
		strings.Join(r.Events, ","), r.Opt, r.Runs, r.Seed, r.Calibrate, r.NoTSC)
	// The engine appears only when non-default, keeping keys (and any
	// stored responses) from before the engine field existed valid.
	if r.Engine != "" {
		key += "|e=" + r.Engine
	}
	return key
}

// ShardKey returns the identity of the system pool that can serve the
// request: processor, stack, and TSC setting. Requests with equal shard
// keys run on interchangeable systems.
func (r MeasureRequest) ShardKey() string {
	return fmt.Sprintf("%s/%s/tsc=%v", r.Processor, r.Stack, !r.NoTSC)
}

// CalibrationKey identifies the calibration a normalized request needs:
// everything that determines the fixed error except the benchmark and
// the repetition plan.
func (r MeasureRequest) CalibrationKey() string {
	return fmt.Sprintf("%s|%s|%s|O%d|t%v", r.ShardKey(), r.Pattern, r.Mode, r.Opt, r.NoTSC)
}

// Build translates the normalized request into the simulator's
// vocabulary: the benchmark, pattern, mode, events, and opt level of a
// core.Request (seed left to the executor).
func (r MeasureRequest) Build() (core.Request, error) {
	bench, err := ParseBench(r.Bench)
	if err != nil {
		return core.Request{}, err
	}
	pattern, err := core.PatternByCode(r.Pattern)
	if err != nil {
		return core.Request{}, err
	}
	mode, err := ParseMode(r.Mode)
	if err != nil {
		return core.Request{}, err
	}
	events := make([]cpu.Event, len(r.Events))
	for i, name := range r.Events {
		if events[i], err = cpu.EventByName(name); err != nil {
			return core.Request{}, err
		}
	}
	return core.Request{
		Bench:   bench,
		Pattern: pattern,
		Mode:    mode,
		Events:  events,
		Opt:     compiler.OptLevel(r.Opt),
	}, nil
}

// CalibrationInfo reports the calibration applied to a measurement.
type CalibrationInfo struct {
	// Offset is the estimated fixed error in events.
	Offset float64 `json:"offset"`
	// Strategy names the estimation method.
	Strategy string `json:"strategy"`
	// Samples is the number of calibration runs behind the estimate.
	Samples int `json:"samples"`
}

// Summary condenses the per-run errors of a measurement.
type Summary struct {
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// MeasureResponse reports a repeated measurement. Identical normalized
// requests receive byte-identical responses: nothing in the body
// depends on timing, worker identity, or cache state (cache hits are
// reported in headers, not the body).
type MeasureResponse struct {
	// Request echoes the normalized request served.
	Request MeasureRequest `json:"request"`
	// Expected is the benchmark's analytical ground-truth count.
	Expected int64 `json:"expected"`
	// Deltas holds the raw measured counts: one row per run, one column
	// per requested event.
	Deltas [][]int64 `json:"deltas"`
	// Errors is the per-run measurement error of the first counter.
	Errors []int64 `json:"errors"`
	// Summary condenses Errors.
	Summary Summary `json:"summary"`
	// Calibration reports the fixed-error estimate applied when the
	// request asked for calibration.
	Calibration *CalibrationInfo `json:"calibration,omitempty"`
	// CalibratedErrors is Errors minus the calibration offset.
	CalibratedErrors []float64 `json:"calibratedErrors,omitempty"`
	// Accuracy is the error-model annotation every response carries:
	// the corrected estimate of the first counter's count with its
	// confidence interval (overhead-corrected when the request asked
	// for calibration). The paper's thesis as a service contract: no
	// count leaves the service without an error estimate attached.
	Accuracy *EstimateInfo `json:"accuracy,omitempty"`
	// Trace is the opt-in span trace (request field "trace": true). It
	// is the one deliberately non-deterministic block of the response:
	// durations are wall time. Stripping it recovers the byte-identical
	// deterministic body, which is why it is attached to a per-caller
	// copy after coalescing, never to the shared response.
	Trace *TraceInfo `json:"trace,omitempty"`
}

// MaxExperimentRuns bounds ExperimentRequest.Runs. Experiments sweep
// whole factorial designs, so even modest per-cell counts are heavy;
// the published scale is 72.
const MaxExperimentRuns = 1000

// ExperimentRequest asks the service to run one paper experiment.
type ExperimentRequest struct {
	// ID is the experiment identifier ("fig1", "table3", ...).
	ID string `json:"id"`
	// Runs scales repetitions per cell (0 uses the quick preset;
	// capped at MaxExperimentRuns).
	Runs int `json:"runs,omitempty"`
	// Seed individualizes the experiment (0 uses the default).
	Seed uint64 `json:"seed,omitempty"`
}

// ExperimentResponse reports a completed experiment.
type ExperimentResponse struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Text is the rendered human-readable result.
	Text string `json:"text"`
}

// HealthResponse reports service liveness and pool state. Fields only
// accrete here: monitoring dashboards built against an older shape
// keep working (the old fields stay a subset).
type HealthResponse struct {
	Status string        `json:"status"`
	Shards []ShardHealth `json:"shards"`
	// Stats aggregates service counters since start.
	Stats ServiceStats `json:"stats"`
	// Calibrations is the calibration-cache size summed over shards.
	Calibrations int `json:"calibrations"`
	// CalibrationHitRate is hits/(hits+misses) of the calibration cache
	// since start (0 before the first lookup).
	CalibrationHitRate float64 `json:"calibrationHitRate"`
	// ActiveSessions is how many monitoring sessions are currently
	// producing (each pinning a worker). Filled by the server front end,
	// which owns the session registry.
	ActiveSessions int `json:"activeSessions"`
	// ActiveCampaigns is how many validation campaigns are currently
	// sweeping. Filled by the server front end, which owns the campaign
	// registry.
	ActiveCampaigns int `json:"activeCampaigns"`
	// Engines reports per-engine run counts and the compile cache shared
	// by every shard's compiled engine.
	Engines EngineHealth `json:"engines"`
}

// EngineHealth reports execution-engine state: how many program runs
// each engine served and the compile cache's occupancy and hit rate.
type EngineHealth struct {
	// InterpreterRuns and CompiledRuns count programs executed per
	// engine since start (top-level runs, not nested handler frames).
	InterpreterRuns int64 `json:"interpreterRuns"`
	CompiledRuns    int64 `json:"compiledRuns"`
	// CompileCacheSize and CompileCacheCapacity describe occupancy of
	// the shared compiled-program cache.
	CompileCacheSize     int `json:"compileCacheSize"`
	CompileCacheCapacity int `json:"compileCacheCapacity"`
	// CompileCacheHits, CompileCacheMisses, and CompileCacheEvictions
	// count cache lookups served warm, lookups that compiled, and
	// entries displaced by capacity.
	CompileCacheHits      int64 `json:"compileCacheHits"`
	CompileCacheMisses    int64 `json:"compileCacheMisses"`
	CompileCacheEvictions int64 `json:"compileCacheEvictions"`
	// CompileCacheHitRate is hits/(hits+misses) since start (0 before
	// the first lookup).
	CompileCacheHitRate float64 `json:"compileCacheHitRate"`
}

// ShardHealth describes one system pool.
type ShardHealth struct {
	// Key is the shard identity (processor/stack/tsc).
	Key string `json:"key"`
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Idle is how many workers are currently checked in.
	Idle int `json:"idle"`
	// InUse is the pool occupancy: workers currently checked out to
	// requests, plans, or pinned sessions (Workers - Idle).
	InUse int `json:"inUse"`
	// Calibrations is how many distinct calibrations the shard cached.
	Calibrations int `json:"calibrations"`
}

// ServiceStats aggregates service-wide counters.
type ServiceStats struct {
	// Requests is the number of measure calls accepted.
	Requests uint64 `json:"requests"`
	// Analyzes is the number of analyze items accepted (batch items,
	// not batches).
	Analyzes uint64 `json:"analyzes"`
	// Infers is the number of infer items accepted (batch items, not
	// batches).
	Infers uint64 `json:"infers"`
	// Coalesced is how many calls were served by joining an identical
	// in-flight request instead of executing.
	Coalesced uint64 `json:"coalesced"`
	// CoalesceLeaders is how many calls executed as a flight leader
	// (followers joined them); Coalesced counts the followers.
	CoalesceLeaders uint64 `json:"coalesceLeaders"`
	// CalibrationHits and CalibrationMisses count calibration-cache
	// lookups that were served warm versus computed.
	CalibrationHits   uint64 `json:"calibrationHits"`
	CalibrationMisses uint64 `json:"calibrationMisses"`
	// PinnedWorkers is how many workers are currently checked out to
	// long-lived holders (monitoring sessions) rather than requests.
	PinnedWorkers uint64 `json:"pinnedWorkers"`
}

// Error is the service's JSON error body.
type Error struct {
	Error string `json:"error"`
}

// ParseBench parses a benchmark spec: null, loop:N, or array:N. It
// imposes no size limit — local tools may run paper-scale benchmarks of
// any size; the service-side cap (MaxBenchIterations) is applied by
// Normalized, where requests from untrusted clients arrive.
func ParseBench(spec string) (*core.Benchmark, error) {
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "null":
		return core.NullBenchmark(), nil
	case "loop", "array":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("api: bad benchmark size %q", arg)
		}
		if name == "loop" {
			return core.LoopBenchmark(n), nil
		}
		return core.ArrayBenchmark(n), nil
	case "gen":
		// Campaign-generated benchmark: gen:v1:<class>:<seed>[:<scale>].
		p, err := gen.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("api: %w", err)
		}
		return p.Benchmark(), nil
	}
	return nil, fmt.Errorf("api: unknown benchmark %q (want null, loop:N, array:N, gen:v1:class:seed:scale)", spec)
}

// canonicalBench checks a benchmark spec against the service's limits
// and returns its wire spelling. A generated benchmark is checked and
// spelled from its spec alone (scale rendered explicitly); Build
// generates the program. Only the null benchmark spells bare: a
// zero-iteration loop/array must keep its ":0" or the canonical form
// would not re-parse (caught by the api fuzz tests).
func canonicalBench(spec string) (string, error) {
	if name, _, _ := strings.Cut(spec, ":"); name == "gen" {
		c, err := gen.Canonical(spec)
		if err != nil {
			return "", badf("api: %v", err)
		}
		return c, nil
	}
	b, err := ParseBench(spec)
	if err != nil {
		return "", badf("%v", err)
	}
	if b.Iterations > MaxBenchIterations {
		return "", badf("api: benchmark size %d exceeds limit %d", b.Iterations, MaxBenchIterations)
	}
	if b.Name == "null" {
		return b.Name, nil
	}
	return fmt.Sprintf("%s:%d", b.Name, b.Iterations), nil
}

// ParsePattern parses a two-letter pattern code (ar, ao, rr, ro).
func ParsePattern(code string) (core.Pattern, error) {
	return core.PatternByCode(code)
}

// ParseMode parses a measurement mode: user, user+kernel (or uk),
// kernel (or os).
func ParseMode(s string) (core.MeasureMode, error) {
	switch s {
	case "user":
		return core.ModeUser, nil
	case "user+kernel", "uk":
		return core.ModeUserKernel, nil
	case "kernel", "os":
		return core.ModeKernel, nil
	}
	return 0, fmt.Errorf("api: unknown mode %q (want user, user+kernel, kernel)", s)
}

// validStack reports whether code names one of the six stacks.
func validStack(code string) bool {
	for _, c := range stack.Codes {
		if c == code {
			return true
		}
	}
	return false
}
