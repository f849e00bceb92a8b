// Command pcload replays a mixed measurement workload against a
// running pcserved and reports throughput, latency percentiles, and —
// because pcserved's responses are deterministic — a cross-check that
// every configuration returned one consistent body.
//
// The default mix drives four shards (K8/pc, K8/pm, CD/pc, CD/PHpm)
// concurrently with a spread of benchmarks and seeds. With -calibrate,
// every request asks for calibration, and the report splits each
// configuration's first request (cold: pays for calibration) from the
// rest (warm: served from the calibration cache), making the cache's
// effect visible from the client side.
//
// With -analyze, requests go to the batched /analyze endpoint instead,
// rotating through the error models (plain counting, duet pairing,
// multiplexed estimation, sampling) so a load run exercises the whole
// accuracy layer; the determinism cross-check applies unchanged.
//
// With -monitor, the workload shifts from request/response to
// continuous monitoring: pcload opens -sessions streaming sessions in
// identical-configuration pairs, consumes every NDJSON stream to its
// end event, and cross-checks that paired sessions streamed
// byte-identical sample series — the determinism contract extended to
// the stateful session layer.
//
// With -plan, requests go to the planning layer: accuracy-targeted
// /plan requests issued in identical pairs, asserting that identical
// plans return byte-identical bodies, that every fused interval is at
// most its naive multiplexed interval, and that plans attain their
// CI-width targets under load.
//
// With -infer, requests go to the constraint-graph inference layer:
// /infer requests issued in identical pairs — measured inputs under
// the built-in invariant library, raw inputs under explicit
// constraints, and deliberately inconsistent inputs — asserting
// byte-identical responses, posterior intervals never wider than the
// priors, and residual verdicts matching each variant.
//
// With -engine, every configuration in the mix is measured twice —
// once pinned to the interpreter engine and once to the compiled
// engine — concurrently, and the responses must be byte-identical
// (after clearing the echoed engine selector): the in-process
// cross-engine conformance suite, exercised over the wire against a
// live server.
//
// With -campaign, the workload turns the server against itself:
// pcload opens -campaigns adversarial counter-validation campaigns
// (POST /campaigns) in identical-configuration pairs, each sweeping
// -programs generated programs through the measurement, inference,
// and planning layers, consumes every NDJSON stream to its end event,
// and fails the run if paired campaigns diverge byte-for-byte or if
// any campaign produces a finding — the stock models must survive
// their own attack suite. See docs/CAMPAIGNS.md.
//
// With -mixed, every request rotates through /measure, /analyze,
// /plan, and /infer, and the report splits latency percentiles per
// endpoint (one pooled line plus one p50/p90/p99 line per endpoint),
// so the cheap endpoints don't hide the expensive ones.
//
// With -trace, every configuration is driven as a traced+untraced
// pair across all four endpoints: the traced response must carry a
// span block drawn from the telemetry catalogue, the untraced one must
// not, and the two bodies must be byte-identical once the trace block
// is stripped — the client-side check of the observability contract
// (docs/OBSERVABILITY.md).
//
// With -cluster, -addr names a pcfront cluster front end instead of a
// single node: the mixed rotation is driven through the proxy, then
// every distinct request is re-issued once against the -direct node
// and the bodies compared byte for byte — the cluster contract (an
// N-node fleet is byte-identical to one node) proven from the client
// side, including under node kill and restart. The report adds the
// routing view (attempts, hedge and retry rates, and the per-backend
// winner distribution from the X-Pcfront-* headers, and the fleet
// state from the front's /healthz).
//
// -cluster and -trace compose: together they drive the mixed rotation
// as stitched-trace checks through the proxy. Every traced response
// must carry one coherent tree — the front's route and forward spans
// on top (drawn from the cluster-tier span catalogue), the backend's
// own trace nested underneath shape-identical to a direct traced
// answer from the -direct node — and stripping the trace block must
// leave the body byte-identical across traced/untraced and
// front/direct. See docs/OBSERVABILITY.md.
//
// Usage:
//
//	pcload -addr http://localhost:7090 -n 200 -c 8 -calibrate
//	pcload -addr http://localhost:7090 -mix "K8/pc,CD/PLpm" -n 100 -c 4
//	pcload -addr http://localhost:7090 -n 100 -c 4 -analyze
//	pcload -addr http://localhost:7090 -monitor -sessions 8 -steps 64
//	pcload -addr http://localhost:7090 -plan -plans 24 -c 4
//	pcload -addr http://localhost:7090 -infer -infers 24 -c 4
//	pcload -addr http://localhost:7090 -engine -n 64 -c 8
//	pcload -addr http://localhost:7090 -campaign -campaigns 6 -programs 4
//	pcload -addr http://localhost:7090 -mixed -n 64 -c 8
//	pcload -addr http://localhost:7090 -trace -n 32 -c 4
//	pcload -addr http://localhost:7080 -cluster -direct http://localhost:7090 -n 64 -c 8
//	pcload -addr http://localhost:7080 -cluster -trace -direct http://localhost:7090 -n 32 -c 4
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/api"
)

func main() {
	var (
		addr      = flag.String("addr", "http://localhost:7090", "pcserved base URL")
		n         = flag.Int("n", 200, "total requests to send")
		c         = flag.Int("c", 8, "concurrent client workers")
		mixSpec   = flag.String("mix", "K8/pc,K8/pm,CD/pc,CD/PHpm", "comma-separated processor/stack pairs")
		runs      = flag.Int("runs", 3, "measurement runs per request")
		calibrate = flag.Bool("calibrate", false, "request calibration on every measurement")
		seeds     = flag.Int("seeds", 8, "distinct seeds per configuration (spread defeats coalescing)")
		analyze   = flag.Bool("analyze", false, "drive /analyze instead of /measure: rotate plain, duet, multiplexed, and sampling items")
		monitor   = flag.Bool("monitor", false, "drive /sessions instead of /measure: open paired streaming sessions and cross-check their series")
		sessions  = flag.Int("sessions", 4, "monitoring sessions to open with -monitor (rounded up to pairs)")
		steps     = flag.Int("steps", 32, "samples per monitoring session with -monitor")
		window    = flag.Int("window", 8, "samples per window with -monitor")
		planMode  = flag.Bool("plan", false, "drive /plan instead of /measure: accuracy-targeted plans, asserting determinism, fused-interval narrowing, and CI-target attainment")
		plans     = flag.Int("plans", 12, "plan requests to send with -plan (issued as identical pairs)")
		inferMode = flag.Bool("infer", false, "drive /infer instead of /measure: constraint-graph inference, asserting determinism, posterior<=prior intervals, and residual verdicts")
		infers    = flag.Int("infers", 18, "infer requests to send with -infer (issued as identical pairs)")
		engine    = flag.Bool("engine", false, "drive /measure in engine pairs: every configuration pinned to the interpreter and the compiled engine, asserting byte-identical responses")
		campMode  = flag.Bool("campaign", false, "drive /campaigns instead of /measure: paired adversarial counter-validation campaigns, asserting byte-identical streams and zero findings")
		campaigns = flag.Int("campaigns", 6, "campaigns to open with -campaign (rounded up to pairs)")
		programs  = flag.Int("programs", 4, "generated programs per campaign with -campaign")
		mixed     = flag.Bool("mixed", false, "rotate every request through /measure, /analyze, /plan, and /infer; the report splits latency percentiles per endpoint")
		traceMode = flag.Bool("trace", false, "drive traced+untraced request pairs across all endpoints, asserting span presence and byte-identity once the trace block is stripped")
		clusterOn = flag.Bool("cluster", false, "treat -addr as a pcfront cluster: drive the mixed rotation through it and cross-check every response byte-identical to the -direct node")
		directURL = flag.String("direct", "", "direct pcserved base URL the -cluster cross-check compares against")
	)
	flag.Parse()

	// The workloads, one per mode flag; none selected runs the default
	// /measure mix. At most one may be selected, except that -cluster
	// and -trace compose into the stitched-trace check.
	w := os.Stdout
	modes := []struct {
		flag string
		on   bool
		run  func() error
	}{
		{"-analyze", *analyze, func() error { return run(w, *addr, *mixSpec, *n, *c, *runs, *seeds, *calibrate, true) }},
		{"-monitor", *monitor, func() error { return runMonitor(w, *addr, *mixSpec, *sessions, *steps, *window, *c) }},
		{"-plan", *planMode, func() error { return runPlan(w, *addr, *mixSpec, *plans, *c) }},
		{"-infer", *inferMode, func() error { return runInfer(w, *addr, *mixSpec, *infers, *c) }},
		{"-engine", *engine, func() error { return runEngine(w, *addr, *mixSpec, *n, *c, *runs, *seeds) }},
		{"-campaign", *campMode, func() error { return runCampaign(w, *addr, *mixSpec, *campaigns, *programs, *c) }},
		{"-mixed", *mixed, func() error { return runMixed(w, *addr, *mixSpec, *n, *c, *runs) }},
		{"-trace", *traceMode, func() error { return runTrace(w, *addr, *mixSpec, *n, *c, *runs) }},
		{"-cluster", *clusterOn, func() error { return runCluster(w, *addr, *directURL, *mixSpec, *n, *c, *runs) }},
	}
	selected := func() error { return run(w, *addr, *mixSpec, *n, *c, *runs, *seeds, *calibrate, false) }
	var names []string
	on := 0
	for _, m := range modes {
		names = append(names, m.flag)
		if m.on {
			on++
			selected = m.run
		}
	}
	var err error
	switch {
	case on == 2 && *clusterOn && *traceMode:
		err = runClusterTrace(w, *addr, *directURL, *mixSpec, *n, *c, *runs)
	case on > 1:
		err = fmt.Errorf("%s, and %s are mutually exclusive workloads (except -cluster -trace)",
			strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
	default:
		err = selected()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcload:", err)
		os.Exit(1)
	}
}

// workItem is one request to fire.
type workItem struct {
	req  api.MeasureRequest
	cold bool // first request of its configuration in this plan
	// analyze, plan, and infer, when set, redirect the item to that
	// endpoint instead of posting req to /measure. At most one is set.
	analyze *api.AnalyzeRequest
	plan    *api.PlanRequest
	infer   *api.InferRequest
}

// endpoint returns the path the item posts to.
func (it workItem) endpoint() string {
	switch {
	case it.analyze != nil:
		return "/analyze"
	case it.plan != nil:
		return "/plan"
	case it.infer != nil:
		return "/infer"
	}
	return "/measure"
}

// payload returns the request body the item posts.
func (it workItem) payload() any {
	switch {
	case it.analyze != nil:
		return it.analyze
	case it.plan != nil:
		return it.plan
	case it.infer != nil:
		return it.infer
	}
	return it.req
}

// outcome records one completed request.
type outcome struct {
	endpoint string
	cold     bool
	reply
	err error
}

func run(w io.Writer, addr, mixSpec string, n, c, runs, seeds int, calibrate, analyze bool) error {
	if err := checkCounts(c, "-n", n); err != nil {
		return err
	}
	if seeds <= 0 {
		return fmt.Errorf("-seeds must be positive (got %d)", seeds)
	}
	plan, err := buildPlan(mixSpec, n, runs, seeds, calibrate, analyze)
	if err != nil {
		return err
	}
	results, elapsed := executePlan(addr, plan, c)
	return report(w, results, elapsed, calibrate)
}

// executePlan fires a work plan at addr through c concurrent workers.
// Shared by the default, -mixed, and -cluster workloads.
func executePlan(addr string, plan []workItem, c int) ([]outcome, time.Duration) {
	client := &http.Client{Timeout: 60 * time.Second}
	return drive(plan, c, func(item workItem) outcome {
		rep, err := post(client, addr, item.endpoint(), item.payload())
		return outcome{endpoint: item.endpoint(), cold: item.cold, reply: rep, err: err}
	})
}

// parseMix parses a -mix spec — comma-separated PROC/stack pairs —
// into measure-request stubs carrying only the configuration identity.
// Shared by every workload builder so the mix format and its errors
// have one definition.
func parseMix(mixSpec string) ([]api.MeasureRequest, error) {
	var configs []api.MeasureRequest
	for _, pair := range strings.Split(mixSpec, ",") {
		proc, stk, ok := strings.Cut(strings.TrimSpace(pair), "/")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want PROC/stack, e.g. K8/pc)", pair)
		}
		configs = append(configs, api.MeasureRequest{Processor: proc, Stack: stk})
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return configs, nil
}

// buildPlan expands the mix into n requests: for each configuration, a
// rotation of benchmarks and seeds. The first request of each
// configuration is marked cold.
func buildPlan(mixSpec string, n, runs, seeds int, calibrate, analyze bool) ([]workItem, error) {
	configs, err := parseMix(mixSpec)
	if err != nil {
		return nil, err
	}
	for i := range configs {
		configs[i].Runs = runs
		configs[i].Calibrate = calibrate
	}

	benches := []string{"loop:1000", "loop:10000", "null", "array:500"}
	patterns := []string{"ar", "ao", "rr", "ro"}
	plan := make([]workItem, 0, n)
	seen := make(map[string]bool)
	for i := 0; i < n; i++ {
		req := configs[i%len(configs)]
		req.Bench = benches[(i/len(configs))%len(benches)]
		req.Pattern = patterns[(i/(len(configs)*len(benches)))%len(patterns)]
		// The PAPI high-level stacks cannot express read-without-reset
		// patterns; keep their slice of the mix on ar/ao.
		if strings.HasPrefix(req.Stack, "PH") && (req.Pattern == "rr" || req.Pattern == "ro") {
			req.Pattern = "ar"
		}
		req.Seed = uint64(1 + i%seeds)
		// Cold means "first request that needs this calibration": the
		// server caches calibrations per (shard, pattern, mode, opt),
		// and within this plan mode and opt are constant. Under high
		// concurrency a few cold-labeled items may race warm ones, so
		// the split is approximate; the service benchmarks isolate the
		// exact cache effect.
		calKey := req.Processor + "/" + req.Stack + "/" + req.Pattern
		item := workItem{req: req, cold: !seen[calKey]}
		if analyze {
			item.analyze = analyzeWrap(req, i)
		}
		plan = append(plan, item)
		seen[calKey] = true
	}
	return plan, nil
}

// analyzeWrap turns a measure request into a one-item /analyze batch,
// rotating through the error models so a load run exercises all of
// them: plain counting, duet pairing against the null benchmark,
// multiplexed estimation, and the sampling model.
func analyzeWrap(req api.MeasureRequest, i int) *api.AnalyzeRequest {
	item := api.AnalyzeItem{Measure: req}
	switch i % 4 {
	case 1:
		duet := req
		duet.Bench = "null"
		item.Duet = &duet
	case 2:
		item.Measure.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}
		item.MpxCounters = 1
	case 3:
		item.SamplingPeriod = 10_000
	}
	return &api.AnalyzeRequest{Items: []api.AnalyzeItem{item}}
}

// report prints throughput, latency percentiles, the cold/warm split,
// and the determinism cross-check.
func report(w io.Writer, results []outcome, elapsed time.Duration, calibrate bool) error {
	var (
		all, warm, cold []time.Duration
		failures        int
		byRequest       = newTally() // request body -> response body
		byEndpoint      = make(map[string][]time.Duration)
	)
	for _, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			failures++
			continue
		}
		all = append(all, res.latency)
		byEndpoint[res.endpoint] = append(byEndpoint[res.endpoint], res.latency)
		if res.cold {
			cold = append(cold, res.latency)
		} else {
			warm = append(warm, res.latency)
		}
		byRequest.add(string(res.sent), string(res.body))
	}

	reportHead(w, "requests", "req", len(results), failures, elapsed, all)
	if len(byEndpoint) > 1 {
		reportEndpoints(w, byEndpoint, "")
	}
	if calibrate && len(cold) > 0 && len(warm) > 0 {
		fmt.Fprintf(w, "cold (first per config, runs calibration): %s\n", summarizeLatency(cold))
		fmt.Fprintf(w, "warm (calibration cache hit):              %s\n", summarizeLatency(warm))
	}
	if n := len(byRequest.diverged); n > 0 {
		fmt.Fprintf(w, "DETERMINISM VIOLATION: %d identical requests got different bodies\n", n)
		return fmt.Errorf("%d divergent responses", n)
	}
	fmt.Fprintf(w, "determinism: %d distinct requests, all responses consistent\n", byRequest.distinct())
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	return nil
}
