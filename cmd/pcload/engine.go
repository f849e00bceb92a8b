package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
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

// buildPlan expands the mix into n /measure requests: for each
// configuration, a rotation of benchmarks, patterns and seeds.
func buildPlan(mixSpec string, n, runs, seeds int) ([]api.MeasureRequest, error) {
	if seeds <= 0 {
		return nil, fmt.Errorf("-seeds must be positive (got %d)", seeds)
	}
	configs, err := parseMix(mixSpec)
	if err != nil {
		return nil, err
	}
	benches := []string{"loop:1000", "loop:10000", "null", "array:500"}
	patterns := []string{"ar", "ao", "rr", "ro"}
	plan := make([]api.MeasureRequest, n)
	for i := range plan {
		req := configs[i%len(configs)]
		req.Runs = runs
		req.Bench = benches[(i/len(configs))%len(benches)]
		req.Pattern = patterns[(i/(len(configs)*len(benches)))%len(patterns)]
		// The PAPI high-level stacks cannot express read-without-reset
		// patterns; keep their slice of the mix on ar/ao.
		if strings.HasPrefix(req.Stack, "PH") && (req.Pattern == "rr" || req.Pattern == "ro") {
			req.Pattern = "ar"
		}
		req.Seed = uint64(1 + i%seeds)
		plan[i] = req
	}
	return plan, nil
}

// buildEnginePairs expands the mix into n configurations by buildPlan's
// rotation, uncalibrated: calibration is identical across engines by
// construction, and slow.
func buildEnginePairs(mixSpec string, n, runs, seeds int) ([]enginePair, error) {
	plan, err := buildPlan(mixSpec, n, runs, seeds)
	if err != nil {
		return nil, err
	}
	pairs := make([]enginePair, len(plan))
	for i, req := range plan {
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
// repetition's, by the determinism contract. A run in which no
// configuration was answered by both engines fails too.
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
	if err := byKey.violation(w, "configurations"); err != nil {
		return err
	}
	if byKey.compared > 0 {
		fmt.Fprintf(w, "conformance: %d engine pairs, interpreter and compiled byte-identical\n", byKey.distinct())
	}
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	return byKey.vacuous("configurations")
}
