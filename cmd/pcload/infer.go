package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/bayes"
)

// inferItem is one /infer request to fire, tagged with whether the
// variant was built inconsistent on purpose (its invariant residual
// must be flagged).
type inferItem struct {
	req          api.InferRequest
	inconsistent bool
}

// inferOutcome records one completed /infer call and the assertions
// the workload makes about it: every posterior interval at most its
// prior, and the consistency verdict matching the variant.
type inferOutcome struct {
	reply
	err        error
	widened    int // events whose posterior interval exceeded the prior
	events     int
	tightening float64
	consistent bool
	wantFlag   bool // variant was built inconsistent: a residual must fire
	flagged    bool
}

// buildInferItems expands the mix into n infer requests cycling the
// variants — measured inputs under the built-in library, raw inputs
// under an explicit sum constraint, and a deliberately inconsistent
// raw pair whose invariant residual must fire. Every request is issued
// twice (i/2) so identical pairs exercise the determinism cross-check
// and in-flight coalescing, like every other pcload workload.
func buildInferItems(mixSpec string, n int) ([]inferItem, error) {
	configs, err := parseMix(mixSpec)
	if err != nil {
		return nil, err
	}
	items := make([]inferItem, 0, n)
	for i := 0; i < n; i++ {
		cfg := configs[(i/2)%len(configs)]
		var it inferItem
		switch (i / (2 * len(configs))) % 3 {
		case 0:
			// Measured: two events of one configuration, the built-in
			// library ties them (superscalar width, non-negativity).
			measure := func(event string) api.InferInput {
				return api.InferInput{Measure: &api.MeasureRequest{
					Processor: cfg.Processor, Stack: cfg.Stack,
					Bench: "loop:500000", Pattern: "ar", Runs: 4,
					Events: []string{event},
				}}
			}
			it.req = api.InferRequest{Items: []api.InferItem{{
				Inputs: []api.InferInput{
					measure("INSTR_RETIRED"),
					measure("CPU_CLK_UNHALTED"),
				},
			}}}
		case 1:
			// Raw with an explicit equality: the BayesPerf-style sum
			// decomposition, consistent by construction.
			it.req = api.InferRequest{Items: []api.InferItem{{
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
		case 2:
			// Deliberately inconsistent: ITLB misses far above i-cache
			// misses cannot happen on the simulated ISA, so the library's
			// residual must flag it (and the posterior must reconcile).
			it.inconsistent = true
			it.req = api.InferRequest{Items: []api.InferItem{{
				Processor: cfg.Processor,
				Inputs: []api.InferInput{
					{Event: "ITLB_MISS", Mean: 4000, Variance: 100},
					{Event: "ICACHE_MISS", Mean: 40, Variance: 100},
				},
			}}}
		}
		items = append(items, it)
	}
	return items, nil
}

// runInfer drives the /infer workload: n requests (issued as identical
// pairs) across c workers, then asserts determinism, the
// posterior<=prior CI guarantee, and the consistency verdicts.
func runInfer(w io.Writer, addr, mixSpec string, n, c int) error {
	if err := checkCounts(c, "-infers", n); err != nil {
		return err
	}
	items, err := buildInferItems(mixSpec, n)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 120 * time.Second}
	results, elapsed := drive(items, c, func(item inferItem) inferOutcome {
		return fireInfer(client, addr, item)
	})
	return reportInfer(w, results, elapsed)
}

// fireInfer sends one /infer request and evaluates its assertions.
func fireInfer(client *http.Client, addr string, item inferItem) inferOutcome {
	rep, err := post(client, addr, "/infer", item.req)
	out := inferOutcome{reply: rep, err: err, wantFlag: item.inconsistent}
	if err != nil || rep.status != http.StatusOK {
		return out
	}
	var ir api.InferResponse
	if err := json.Unmarshal(rep.body, &ir); err != nil {
		out.err = err
		return out
	}
	out.consistent = true
	for _, res := range ir.Results {
		out.tightening += res.Tightening
		if !res.Consistent {
			out.consistent = false
		}
		for _, r := range res.Residuals {
			if r.Violated {
				out.flagged = true
			}
		}
		for i, posterior := range res.Posterior {
			prior := res.Prior[i]
			priorHalf := (prior.Hi - prior.Lo) / 2
			postHalf := (posterior.Hi - posterior.Lo) / 2
			if postHalf > priorHalf*(1+1e-9) {
				out.widened++
			}
			out.events++
		}
	}
	return out
}

// reportInfer prints throughput, latency, tightening, and the
// determinism cross-check, failing on any violated assertion.
func reportInfer(w io.Writer, results []inferOutcome, elapsed time.Duration) error {
	var (
		all                 []time.Duration
		failures            int
		widened, events     int
		tighteningSum       float64
		flaggedOK, flagMiss int
		cleanOK, cleanFalse int
		byRequest           = newTally()
	)
	for _, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			failures++
			continue
		}
		all = append(all, res.latency)
		widened += res.widened
		events += res.events
		tighteningSum += res.tightening
		if res.wantFlag {
			if res.flagged && !res.consistent {
				flaggedOK++
			} else {
				flagMiss++
			}
		} else {
			if res.consistent {
				cleanOK++
			} else {
				cleanFalse++
			}
		}
		byRequest.add(string(res.sent), string(res.body))
	}

	reportHead(w, "infers", "infers", len(results), failures, elapsed, all)
	if responses := len(all); responses > 0 {
		fmt.Fprintf(w, "tightening:  %.1f%% mean posterior-vs-prior interval reduction\n",
			100*tighteningSum/float64(responses))
		fmt.Fprintf(w, "residuals:   %d/%d planted inconsistencies flagged, %d/%d clean items clean\n",
			flaggedOK, flaggedOK+flagMiss, cleanOK, cleanOK+cleanFalse)
	}
	if n := len(byRequest.diverged); n > 0 {
		fmt.Fprintf(w, "DETERMINISM VIOLATION: %d identical infers got different bodies\n", n)
		return fmt.Errorf("%d divergent infer responses", n)
	}
	fmt.Fprintf(w, "determinism: %d distinct infers, all responses consistent\n", byRequest.distinct())
	if widened > 0 {
		return fmt.Errorf("%d events reported a posterior interval wider than the prior", widened)
	}
	if flagMiss > 0 {
		return fmt.Errorf("%d planted inconsistencies escaped the residual check", flagMiss)
	}
	if cleanFalse > 0 {
		return fmt.Errorf("%d consistent items were flagged inconsistent", cleanFalse)
	}
	if failures > 0 {
		return fmt.Errorf("%d infers failed", failures)
	}
	return nil
}
