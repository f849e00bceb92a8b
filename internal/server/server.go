// Package server assembles the pcserved HTTP front end: the route
// table over internal/service, the monitoring-session and
// counter-validation-campaign registries, the experiment planner, and
// the telemetry middleware feeding /metrics. It exists as a library so
// a single measurement node can be embedded anywhere a handler fits —
// cmd/pcserved wraps it in a process, the cluster tests and
// examples/cluster spin whole in-process fleets of them behind
// cmd/pcfront's proxy, and cmd/pcserved's own tests drive the exact
// production routing through httptest.
//
// Endpoints, determinism contract, and error shape are documented on
// cmd/pcserved; this package is that server minus flags, signals, and
// the listener.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/plan"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Config sizes one measurement node. The zero value is production
// defaults throughout.
type Config struct {
	// Workers is the number of systems pooled per (processor, stack)
	// shard. Zero means 4.
	Workers int
	// CalibrationRuns is the repetition count behind each calibration
	// estimate. Zero means 31.
	CalibrationRuns int
	// MaxExperiments bounds concurrent /experiment sweeps. Zero means 2.
	MaxExperiments int
	// Monitor sizes the session registry (zero-value fields take the
	// monitor package defaults).
	Monitor monitor.Config
	// Campaign sizes the campaign registry (zero-value fields take the
	// campaign package defaults).
	Campaign campaign.Config
	// Pprof mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints expose internals and cost CPU while sampling,
	// so production opts in explicitly.
	Pprof bool
}

// Server is one assembled measurement node: service, registries,
// planner, and the instrumented route table.
type Server struct {
	svc     *service.Service
	reg     *monitor.Registry
	creg    *campaign.Registry
	planner *plan.Planner
	handler http.Handler
}

// New assembles a node from the config.
func New(cfg Config) *Server {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.CalibrationRuns == 0 {
		cfg.CalibrationRuns = 31
	}
	if cfg.MaxExperiments == 0 {
		cfg.MaxExperiments = 2
	}
	svc := service.New(service.Config{
		WorkersPerShard:          cfg.Workers,
		CalibrationRuns:          cfg.CalibrationRuns,
		MaxConcurrentExperiments: cfg.MaxExperiments,
	})
	reg := monitor.NewRegistry(svc, cfg.Monitor)
	planner := plan.New(svc)
	creg := campaign.NewRegistry(campaign.Services{
		Measure: svc.Measure,
		Infer:   svc.Infer,
		Plan:    planner.Do,
	}, cfg.Campaign)
	s := &Server{svc: svc, reg: reg, creg: creg, planner: planner}
	s.handler = newHandler(svc, reg, creg, planner, handlerConfig{pprof: cfg.Pprof})
	return s
}

// Handler returns the node's full route table.
func (s *Server) Handler() http.Handler { return s.handler }

// Service exposes the underlying measurement service (stats hooks for
// health aggregation and tests).
func (s *Server) Service() *service.Service { return s.svc }

// Close drains the node: campaigns first, then sessions, so every open
// NDJSON stream ends with a drained event before the caller shuts the
// listener down. Safe to call once.
func (s *Server) Close() {
	// Drain order matters: closing the registries first ends every
	// session and campaign with a drained end event, so open NDJSON
	// streams terminate cleanly and an http.Server.Shutdown waiting on
	// in-flight requests can finish instead of hanging on live streams.
	s.creg.Close()
	s.reg.Close()
}

// handlerConfig carries front-end options that are not services.
type handlerConfig struct {
	pprof bool
}

// router is the route-registration surface shared by the raw mux and
// the instrumenting wrapper, so route files register the same way
// whether or not they are measured.
type router interface {
	HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request))
}

// instrumentedRouter registers every handler wrapped in the
// per-endpoint telemetry middleware, labeled by route pattern.
type instrumentedRouter struct {
	mux *http.ServeMux
	ts  *telemetrySet
}

func (ir instrumentedRouter) HandleFunc(pattern string, h func(http.ResponseWriter, *http.Request)) {
	ir.mux.HandleFunc(pattern, ir.ts.instrument(endpointLabel(pattern), h))
}

// endpointLabel derives the metric label from a route pattern: the
// path template with the method dropped ("POST /measure" becomes
// "/measure"). Wildcards stay as templates ("/sessions/{id}"), so
// label cardinality is bounded by the route table, never by URLs.
func endpointLabel(pattern string) string {
	if _, path, ok := strings.Cut(pattern, " "); ok {
		return path
	}
	return pattern
}

// newHandler wires the service, session and campaign registries, and
// planner into an HTTP mux. Every route is registered through the
// telemetry middleware; /metrics serves the accumulated exposition
// plus the same Stats snapshot /healthz renders as JSON.
func newHandler(svc *service.Service, reg *monitor.Registry, creg *campaign.Registry, planner *plan.Planner, cfg handlerConfig) http.Handler {
	mux := http.NewServeMux()
	ts := newTelemetrySet()
	ir := instrumentedRouter{mux: mux, ts: ts}
	registerSessionRoutes(ir, reg)
	registerCampaignRoutes(ir, creg)
	ir.HandleFunc("POST /measure", handleJSON(statusFor, http.StatusOK,
		func(r *http.Request, req api.MeasureRequest) (*api.MeasureResponse, error) {
			return svc.Measure(r.Context(), req)
		}))
	ir.HandleFunc("POST /analyze", handleJSON(statusFor, http.StatusOK,
		func(r *http.Request, req api.AnalyzeRequest) (*api.AnalyzeResponse, error) {
			return svc.Analyze(r.Context(), req)
		}))
	ir.HandleFunc("POST /plan", handleJSON(statusFor, http.StatusOK,
		func(r *http.Request, req api.PlanRequest) (*api.PlanResponse, error) {
			return planner.Do(r.Context(), req)
		}))
	ir.HandleFunc("POST /infer", handleJSON(statusFor, http.StatusOK,
		func(r *http.Request, req api.InferRequest) (*api.InferResponse, error) {
			return svc.Infer(r.Context(), req)
		}))
	ir.HandleFunc("POST /experiment", handleJSON(statusFor, http.StatusOK,
		func(r *http.Request, req api.ExperimentRequest) (*api.ExperimentResponse, error) {
			return svc.Experiment(r.Context(), req)
		}))
	ir.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The service owns pool and cache state; the session and campaign
		// registries are the front end's, so their live counts are
		// overlaid here — from the same one-lock snapshots /metrics uses.
		h := svc.Health()
		h.ActiveSessions, _ = reg.Stats()
		h.ActiveCampaigns, _ = creg.Stats()
		writeJSON(w, http.StatusOK, h)
	})
	ir.HandleFunc("GET /metrics", ts.serveMetrics(svc, reg, creg, planner))
	if cfg.pprof {
		// Explicit registrations rather than the package's init-time
		// DefaultServeMux side effects: the flag, not the import, decides
		// exposure. Index serves the named-profile subpaths (heap,
		// goroutine, ...) under the trailing slash.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleJSON is the one shape every JSON endpoint shares: decode the
// body (a malformed body is always the client's fault; one past
// api.MaxBodyBytes is refused with 413), run the handler, map its error
// to a status with the given policy, and write either the api.Error
// body or the response at the success code. One helper means every
// endpoint emits the same error shape.
func handleJSON[Req, Resp any](status func(error) int, code int, do func(*http.Request, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := telemetry.FromContext(r.Context())
		pstart := tr.Clock()
		var req Req
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxBodyBytes)).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		tr.AddSince(telemetry.SpanParse, pstart)
		resp, err := do(r, req)
		if err != nil {
			writeError(w, status(err), err)
			return
		}
		// The encode span cannot appear in the response it times — the
		// body is sealed before the span ends — so it feeds the stage
		// histogram only (docs/OBSERVABILITY.md).
		estart := tr.Clock()
		writeJSON(w, code, resp)
		tr.AddSince(telemetry.SpanEncode, estart)
	}
}

// statusFor maps service errors to HTTP statuses: invalid requests are
// the client's fault, everything else the server's.
func statusFor(err error) int {
	var unsupported *core.ErrUnsupportedPattern
	switch {
	case errors.Is(err, api.ErrBadRequest),
		errors.As(err, &unsupported),
		errors.Is(err, service.ErrUnknownExperiment):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the service's JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, api.Error{Error: err.Error()})
}

// Timeouts returns the read/idle deadlines a production listener
// should apply around this handler. WriteTimeout must stay 0: the
// /sessions and /campaigns streams hold their responses open for the
// producer's whole lifetime, and a server-wide write deadline would
// sever every live stream.
func Timeouts() (readHeader, read, idle time.Duration) {
	return 5 * time.Second, 30 * time.Second, 2 * time.Minute
}
