// Command pcload checks the contracts of a running pcserved, or of a
// pcfront over pcserved nodes, that no other end-to-end check makes.
// Load generation, and the checks that a repeated request gets the same
// answer, that the front agrees with a node and that identical sessions
// stream identical NDJSON, live in the benchmark: run bash bench/run.sh,
// whose smoke test CI runs as a correctness gate (bench/README.md).
// Choose exactly one mode:
//
// -engine measures every configuration of the mix twice, concurrently:
// once pinned to the interpreter engine and once to the compiled
// engine. The two responses must be byte-identical once the echoed
// engine selector is cleared.
//
// -plan sends accuracy-targeted /plan requests in identical pairs:
// identical plans must return byte-identical bodies, every fused
// interval must be at most its naive multiplexed interval, and every
// plan must attain its CI-width target under load.
//
// -infer sends /infer requests in identical pairs — measured inputs
// under the built-in invariant library, raw inputs under explicit
// constraints, and deliberately inconsistent inputs — asserting
// byte-identical responses, posterior intervals never wider than the
// priors, and residual verdicts matching each variant.
//
// -campaign opens adversarial counter-validation campaigns
// (POST /campaigns) in identical pairs and consumes every NDJSON stream
// to its end event. Paired campaigns must stream identical bytes, and
// any finding fails the run: the stock models must survive their own
// attack suite. See docs/CAMPAIGNS.md.
//
// -trace drives every request of a four-endpoint rotation as a
// traced+untraced pair. The traced response must carry a span block
// drawn from the node's telemetry catalogue, the untraced one must not,
// and the two bodies must be byte-identical once the block is stripped.
// With -direct, -addr names a pcfront: every traced block must be the
// front's stitched tree, route and forward spans over the backend's own
// trace, and that trace must have the shape of a traced answer from the
// -direct node, whose stripped body must match the front's. See
// docs/OBSERVABILITY.md.
//
// -cluster drives the same rotation through the pcfront at -addr, then
// re-issues every distinct request once to the -direct node and
// compares the bodies byte for byte. The report adds the routing view
// from the X-Pcfront-* headers and the front's /healthz. CI runs it
// against race-built binaries with a node killed mid-run.
//
// No verdict passes on nothing: a run that compared no answer with
// another, or checked no pair, fails.
//
// Usage:
//
//	pcload -addr http://localhost:7090 -engine -n 64 -c 8
//	pcload -addr http://localhost:7090 -plan -plans 24 -c 4
//	pcload -addr http://localhost:7090 -infer -infers 24 -c 4
//	pcload -addr http://localhost:7090 -campaign -campaigns 6 -programs 4
//	pcload -addr http://localhost:7090 -trace -n 32 -c 4
//	pcload -addr http://localhost:7080 -trace -direct http://localhost:7090 -n 32 -c 4
//	pcload -addr http://localhost:7080 -cluster -direct http://localhost:7090 -n 64 -c 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/api"
	"repro/internal/bayes"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "pcload:", err)
		os.Exit(1)
	}
}

// run parses the command line and runs the one mode it selects.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pcload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://localhost:7090", "pcserved base URL (a pcfront's with -cluster, or with -trace -direct)")
		n         = fs.Int("n", 200, "requests to send with -engine and -cluster, traced+untraced pairs with -trace")
		c         = fs.Int("c", 8, "concurrent client workers")
		mixSpec   = fs.String("mix", "K8/pc,K8/pm,CD/pc,CD/PHpm", "comma-separated processor/stack pairs")
		runs      = fs.Int("runs", 3, "measurement runs per request")
		seeds     = fs.Int("seeds", 8, "distinct seeds per configuration with -engine")
		planMode  = fs.Bool("plan", false, "drive /plan: accuracy-targeted plans, asserting determinism, fused-interval narrowing, and CI-target attainment")
		plans     = fs.Int("plans", 12, "plan requests to send with -plan (rounded up to identical pairs)")
		inferMode = fs.Bool("infer", false, "drive /infer: constraint-graph inference, asserting determinism, posterior<=prior intervals, and residual verdicts")
		infers    = fs.Int("infers", 18, "infer requests to send with -infer (rounded up to identical pairs)")
		engine    = fs.Bool("engine", false, "drive /measure in engine pairs: every configuration pinned to the interpreter and the compiled engine, asserting byte-identical responses")
		campMode  = fs.Bool("campaign", false, "drive /campaigns: paired adversarial counter-validation campaigns, asserting byte-identical streams and zero findings")
		campaigns = fs.Int("campaigns", 6, "campaigns to open with -campaign (rounded up to pairs)")
		programs  = fs.Int("programs", 4, "generated programs per campaign with -campaign")
		traceMode = fs.Bool("trace", false, "drive traced+untraced request pairs across all endpoints, asserting span presence and byte-identity once the trace block is stripped; with -direct, also the front's stitched tree")
		clusterOn = fs.Bool("cluster", false, "treat -addr as a pcfront cluster: drive the mixed rotation through it and cross-check every response byte-identical to the -direct node")
		directURL = fs.String("direct", "", "pcserved base URL that -cluster and -trace check a pcfront's answers against")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	modes := []struct {
		flag string
		on   bool
		run  func() error
	}{
		{"-engine", *engine, func() error { return runEngine(w, *addr, *mixSpec, *n, *c, *runs, *seeds) }},
		{"-plan", *planMode, func() error { return runPlan(w, *addr, *mixSpec, *plans, *c) }},
		{"-infer", *inferMode, func() error { return runInfer(w, *addr, *mixSpec, *infers, *c) }},
		{"-campaign", *campMode, func() error { return runCampaign(w, *addr, *mixSpec, *campaigns, *programs, *c) }},
		{"-trace", *traceMode, func() error { return runTrace(w, *addr, *directURL, *mixSpec, *n, *c, *runs) }},
		{"-cluster", *clusterOn, func() error { return runCluster(w, *addr, *directURL, *mixSpec, *n, *c, *runs) }},
	}
	var names []string
	var selected []func() error
	for _, m := range modes {
		names = append(names, m.flag)
		if m.on {
			selected = append(selected, m.run)
		}
	}
	if len(selected) != 1 {
		return fmt.Errorf("choose exactly one mode: %s", strings.Join(names, ", "))
	}
	return selected[0]()
}

// workItem is one request to fire: a /measure request, or, when one of
// analyze, plan and infer is set, a request to that endpoint instead.
type workItem struct {
	req     api.MeasureRequest
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

// parseMix parses a -mix spec — comma-separated PROC/stack pairs —
// into measure-request stubs carrying only the configuration identity.
// Shared by every mode's builder so the mix format and its errors
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

// buildMixedPlan expands the mix into n requests rotating through all
// four request/response endpoints — /measure, /analyze, /plan, /infer
// — so one -trace or -cluster run covers the whole serving surface.
// Payloads are kept modest: the rotation checks contracts, not the
// endpoints' extremes.
func buildMixedPlan(mixSpec string, n, runs int) ([]workItem, error) {
	configs, err := parseMix(mixSpec)
	if err != nil {
		return nil, err
	}
	benches := []string{"loop:1000", "loop:5000", "array:500"}
	plan := make([]workItem, 0, n)
	for i := 0; i < n; i++ {
		cfg := configs[(i/4)%len(configs)]
		req := api.MeasureRequest{
			Processor: cfg.Processor, Stack: cfg.Stack,
			Bench: benches[(i/(4*len(configs)))%len(benches)],
			Runs:  runs,
			Seed:  uint64(1 + i/(4*len(configs)*len(benches))),
		}
		var item workItem
		switch i % 4 {
		case 0:
			item.req = req
		case 1:
			item.analyze = &api.AnalyzeRequest{Items: []api.AnalyzeItem{{
				Measure: req, MpxCounters: 2,
			}}}
		case 2:
			preq := req
			preq.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}
			preq.Runs = 0 // the plan decides its own run counts
			item.plan = &api.PlanRequest{
				Measure:        preq,
				TargetRelWidth: 0.25,
				PilotRuns:      2,
				MaxRuns:        8,
			}
		case 3:
			// Raw-input inference: cheap by construction, no measuring.
			item.infer = &api.InferRequest{Items: []api.InferItem{{
				Inputs: []api.InferInput{
					{Event: "TOTAL", Mean: 1485, Variance: 900},
					{Event: "A", Mean: 1008, Variance: 400},
					{Event: "B", Mean: 503, Variance: 625},
				},
				Constraints: []api.InferConstraint{{
					Name: "decompose",
					Terms: []bayes.Term{
						{Event: "TOTAL", Coef: 1}, {Event: "A", Coef: -1}, {Event: "B", Coef: -1},
					},
					Op: bayes.OpEq, RHS: 0,
				}},
			}}}
		}
		plan = append(plan, item)
	}
	return plan, nil
}
