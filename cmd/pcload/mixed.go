package main

import (
	"io"

	"repro/internal/api"
	"repro/internal/bayes"
)

// buildMixedPlan expands the mix into n requests rotating through all
// four request/response endpoints — /measure, /analyze, /plan, /infer
// — so one load run covers the whole serving surface and the report's
// per-endpoint latency split has something to split. Payloads are kept
// modest: the mixed workload measures the endpoints' relative costs,
// not their extremes.
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

// runMixed drives the mixed workload: n requests rotating through all
// four endpoints across c workers, reported with the per-endpoint
// latency split. The determinism cross-check applies per request body,
// endpoint-agnostic, exactly as in the default workload.
func runMixed(w io.Writer, addr, mixSpec string, n, c, runs int) error {
	if err := checkCounts(c, "-n", n); err != nil {
		return err
	}
	plan, err := buildMixedPlan(mixSpec, n, runs)
	if err != nil {
		return err
	}
	results, elapsed := executePlan(addr, plan, c)
	return report(w, results, elapsed, false)
}
