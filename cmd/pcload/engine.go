package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
)

// enginePair is one measurement configuration fired twice — once pinned
// to each execution engine — for the cross-engine conformance check
// over the wire.
type enginePair struct {
	key string
	req api.MeasureRequest // engine left empty; set per shot
}

// engineOutcome records one completed engine-pinned request. body is
// the response with the echoed engine selector cleared, so the two
// engines' responses compare byte-identically when the measurements do.
type engineOutcome struct {
	key     string
	latency time.Duration
	status  int
	err     error
	body    string
}

// buildEnginePairs expands the mix into n configurations by the
// default workload's rotation of benchmarks, patterns, and seeds, minus
// calibration (identical across engines by construction, and slow).
func buildEnginePairs(mixSpec string, n, runs, seeds int) ([]enginePair, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("-seeds must be positive (got %d)", seeds)
	}
	plan, err := buildPlan(mixSpec, n, runs, seeds, false, false)
	if err != nil {
		return nil, err
	}
	pairs := make([]enginePair, len(plan))
	for i, item := range plan {
		req := item.req
		pairs[i] = enginePair{
			key: fmt.Sprintf("%s/%s/%s/%s/s%d", req.Processor, req.Stack, req.Bench, req.Pattern, req.Seed),
			req: req,
		}
	}
	return pairs, nil
}

// runEngine drives the cross-engine conformance workload: every
// configuration is measured once on the interpreter and once on the
// compiled engine, concurrently, and the two responses must be
// byte-identical once the echoed engine selector is cleared.
func runEngine(w io.Writer, addr, mixSpec string, n, c, runs, seeds int) error {
	if err := checkCounts(c, "-n", n); err != nil {
		return err
	}
	pairs, err := buildEnginePairs(mixSpec, n, runs, seeds)
	if err != nil {
		return err
	}

	type shot struct {
		pair   enginePair
		engine string
	}
	// The two engines of a pair are queued back to back so they race
	// on the same shard's workers under load.
	shots := make([]shot, 0, 2*len(pairs))
	for _, p := range pairs {
		shots = append(shots, shot{p, api.EngineInterpreter}, shot{p, api.EngineCompiled})
	}
	client := &http.Client{Timeout: 60 * time.Second}
	results, elapsed := drive(shots, c, func(s shot) engineOutcome {
		return fireEngine(client, addr, s.pair, s.engine)
	})
	return reportEngine(w, results, elapsed)
}

// fireEngine sends one engine-pinned measurement and normalizes the
// response for comparison: the echoed request's engine selector is the
// only field allowed to differ between the pair, so it is cleared.
func fireEngine(client *http.Client, addr string, pair enginePair, engine string) engineOutcome {
	req := pair.req
	req.Engine = engine
	rep, err := post(client, addr, "/measure", req)
	out := engineOutcome{key: pair.key, latency: rep.latency, status: rep.status, err: err}
	if err != nil || rep.status != http.StatusOK {
		return out
	}
	var mr api.MeasureResponse
	if err := json.Unmarshal(rep.body, &mr); err != nil {
		out.err = err
		return out
	}
	mr.Request.Engine = ""
	norm, err := json.Marshal(mr)
	if err != nil {
		out.err = err
		return out
	}
	out.body = string(norm)
	return out
}

// reportEngine prints throughput and latency and fails on any
// configuration whose engines disagreed. Every answer for one
// configuration must be the same bytes: the two engines', and any
// repetition's, by the determinism contract.
func reportEngine(w io.Writer, results []engineOutcome, elapsed time.Duration) error {
	var (
		all      []time.Duration
		failures int
		byKey    = newTally() // configuration key -> normalized body
	)
	for _, res := range results {
		if res.err != nil || res.status != http.StatusOK {
			failures++
			continue
		}
		all = append(all, res.latency)
		byKey.add(res.key, res.body)
	}

	reportHead(w, "requests", "req", len(results), failures, elapsed, all)
	if divergent := byKey.diverged; len(divergent) > 0 {
		fmt.Fprintf(w, "ENGINE CONFORMANCE VIOLATION: %d configurations measured differently per engine\n", len(divergent))
		for _, key := range divergent {
			fmt.Fprintf(w, "  %s\n", key)
		}
		return fmt.Errorf("%d configurations diverged between engines", len(divergent))
	}
	fmt.Fprintf(w, "conformance: %d engine pairs, interpreter and compiled byte-identical\n", byKey.distinct())
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	return nil
}
