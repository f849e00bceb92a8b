package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
)

// planItem is one /plan request to fire.
type planItem struct {
	req api.PlanRequest
}

// planOutcome records one completed /plan call and the two assertions
// the workload makes about it: the fused interval of every event must
// be at most the naive one, and the plan must attain its target.
type planOutcome struct {
	reply
	err       error
	attained  bool
	widened   int // events whose fused interval exceeded the naive one
	narrowing float64
	events    int
	rounds    int
	totalRuns int
}

// buildPlanPlans expands the mix into n plan requests cycling a set of
// accuracy-targeted variants. Every variant uses events whose counts
// are either large (so the relative target is attainable within the
// budget) or exactly zero (attained trivially), keeping the attainment
// assertion sound under load.
func buildPlanPlans(mixSpec string, n int) ([]planItem, error) {
	type variant struct {
		bench    string
		events   []string
		counters int
	}
	variants := []variant{
		// Multiplexed: 3 events on 2 counters, anchor-pinned groups.
		{"array:1000000", []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS"}, 2},
		// Dedicated: fits the hardware, exercises calibration reuse.
		{"loop:2000000", []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}, 0},
		// Multiplexed, wider set: 4 events on 2 counters.
		{"array:2000000", []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "DCACHE_MISS", "BR_MISP_RETIRED"}, 2},
	}
	configs, err := parseMix(mixSpec)
	if err != nil {
		return nil, err
	}
	plan := make([]planItem, 0, n)
	for i := 0; i < n; i++ {
		// i/2: every request is issued twice, so identical pairs exercise
		// the determinism cross-check (and in-flight coalescing) exactly
		// like pcload's other workloads.
		v := variants[(i/2)%len(variants)]
		cfg := configs[(i/(2*len(variants)))%len(configs)]
		req := api.PlanRequest{
			Measure: api.MeasureRequest{
				Processor: cfg.Processor, Stack: cfg.Stack,
				Bench:  v.bench,
				Events: v.events,
			},
			TargetRelWidth: 0.1,
			Counters:       v.counters,
			PilotRuns:      2,
			MaxRuns:        16,
		}
		plan = append(plan, planItem{req: req})
	}
	return plan, nil
}

// runPlan drives the /plan workload: n requests (issued as identical
// pairs) across c workers, then asserts determinism, fused-interval
// narrowing, and CI-target attainment.
func runPlan(w io.Writer, addr, mixSpec string, n, c int) error {
	if err := checkCounts(c, "-plans", n); err != nil {
		return err
	}
	plan, err := buildPlanPlans(mixSpec, n)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 120 * time.Second}
	results, elapsed := drive(plan, c, func(item planItem) planOutcome {
		return firePlan(client, addr, item)
	})
	return reportPlan(w, results, elapsed)
}

// firePlan sends one /plan request and evaluates its assertions.
func firePlan(client *http.Client, addr string, item planItem) planOutcome {
	rep, err := post(client, addr, "/plan", item.req)
	out := planOutcome{reply: rep, err: err}
	if err != nil || rep.status != http.StatusOK {
		return out
	}
	var pr api.PlanResponse
	if err := json.Unmarshal(rep.body, &pr); err != nil {
		out.err = err
		return out
	}
	out.attained = pr.Attained
	out.rounds = pr.Rounds
	out.totalRuns = pr.TotalRuns
	for _, est := range pr.Estimates {
		naiveHalf := (est.Naive.Hi - est.Naive.Lo) / 2
		fusedHalf := (est.Fused.Hi - est.Fused.Lo) / 2
		if fusedHalf > naiveHalf*(1+1e-9) {
			out.widened++
		}
		out.narrowing += est.Narrowing
		out.events++
	}
	return out
}

// reportPlan prints throughput, latency, attainment, and the
// determinism cross-check, failing on any violated assertion.
func reportPlan(w io.Writer, results []planOutcome, elapsed time.Duration) error {
	var (
		all                []time.Duration
		failures           int
		attained, missed   int
		widened, events    int
		narrowingSum       float64
		runsSum, roundsMax int
		byRequest          = newTally()
	)
	for _, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			failures++
			continue
		}
		all = append(all, res.latency)
		if res.attained {
			attained++
		} else {
			missed++
		}
		widened += res.widened
		events += res.events
		narrowingSum += res.narrowing
		runsSum += res.totalRuns
		roundsMax = max(roundsMax, res.rounds)
		byRequest.add(string(res.sent), string(res.body))
	}

	reportHead(w, "plans", "plans", len(results), failures, elapsed, all)
	ok := len(results) - failures
	if ok > 0 {
		fmt.Fprintf(w, "attained:    %d/%d plans met their CI target (max rounds %d, %.1f runs/plan)\n",
			attained, ok, roundsMax, float64(runsSum)/float64(ok))
	}
	if events > 0 {
		fmt.Fprintf(w, "narrowing:   %.1f%% mean fused-vs-naive interval reduction\n", 100*narrowingSum/float64(events))
	}
	if n := len(byRequest.diverged); n > 0 {
		fmt.Fprintf(w, "DETERMINISM VIOLATION: %d identical plans got different bodies\n", n)
		return fmt.Errorf("%d divergent plan responses", n)
	}
	fmt.Fprintf(w, "determinism: %d distinct plans, all responses consistent\n", byRequest.distinct())
	if widened > 0 {
		return fmt.Errorf("%d events reported a fused interval wider than the naive one", widened)
	}
	if missed > 0 {
		return fmt.Errorf("%d plans missed an attainable CI target", missed)
	}
	if failures > 0 {
		return fmt.Errorf("%d plans failed", failures)
	}
	return nil
}
