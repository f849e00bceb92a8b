package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// traceOutcome records one traced+untraced pair and the contract
// checks made on it.
type traceOutcome struct {
	endpoint string
	latency  time.Duration // the traced request's latency
	spans    int
	err      error
}

// withTrace returns the item's payload with the trace flag set —
// the only difference from the untraced twin.
func withTrace(item workItem) any {
	switch {
	case item.analyze != nil:
		req := *item.analyze
		req.Trace = true
		return &req
	case item.plan != nil:
		req := *item.plan
		req.Trace = true
		return &req
	case item.infer != nil:
		req := *item.infer
		req.Trace = true
		return &req
	}
	req := item.req
	req.Trace = true
	return req
}

// stripTraceBlock unmarshals a response body, removes the top-level
// "trace" key, and re-marshals the rest. Go's map marshaling sorts
// keys, so two bodies that agree on everything but the trace block
// compare equal byte-for-byte after this.
func stripTraceBlock(body []byte) (stripped string, trace *api.TraceInfo, err error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return "", nil, fmt.Errorf("unmarshal response: %w", err)
	}
	if raw, ok := m["trace"]; ok {
		trace = new(api.TraceInfo)
		if err := json.Unmarshal(raw, trace); err != nil {
			return "", nil, fmt.Errorf("unmarshal trace block: %w", err)
		}
		delete(m, "trace")
	}
	out, err := json.Marshal(m)
	if err != nil {
		return "", nil, err
	}
	return string(out), trace, nil
}

// fireTracePair posts the item untraced and traced, then checks the
// observability contract: no trace block without opt-in, a catalogued
// span block with opt-in, and byte-identical bodies once the block is
// stripped.
func fireTracePair(client *http.Client, addr string, item workItem, catalogue map[string]bool) traceOutcome {
	out := traceOutcome{endpoint: item.endpoint()}
	plain, err := postOK(client, addr, item.endpoint(), item.payload())
	if err != nil {
		out.err = err
		return out
	}
	traced, err := postOK(client, addr, item.endpoint(), withTrace(item))
	out.latency = traced.latency
	if err != nil {
		out.err = err
		return out
	}

	plainStripped, plainTrace, err := stripTraceBlock(plain.body)
	if err != nil {
		out.err = err
		return out
	}
	if plainTrace != nil {
		out.err = fmt.Errorf("%s: untraced response carries a trace block", item.endpoint())
		return out
	}
	tracedStripped, traceBlock, err := stripTraceBlock(traced.body)
	if err != nil {
		out.err = err
		return out
	}
	if traceBlock == nil || len(traceBlock.Spans) == 0 {
		out.err = fmt.Errorf("%s: traced response has no spans", item.endpoint())
		return out
	}
	out.spans = len(traceBlock.Spans)
	for _, sp := range traceBlock.Spans {
		if !catalogue[sp.Name] {
			out.err = fmt.Errorf("%s: span %q not in the telemetry catalogue", item.endpoint(), sp.Name)
			return out
		}
		if sp.DurationNs < 0 {
			out.err = fmt.Errorf("%s: span %q has negative duration", item.endpoint(), sp.Name)
			return out
		}
	}
	if tracedStripped != plainStripped {
		out.err = fmt.Errorf("%s: TRACE VIOLATION: bodies differ beyond the trace block", item.endpoint())
	}
	return out
}

// runTrace drives the -trace workload: n traced+untraced pairs
// rotating through /measure, /analyze, /plan, and /infer across c
// workers, failing the run if any pair violates the observability
// contract.
func runTrace(w io.Writer, addr, mixSpec string, n, c, runs int) error {
	if err := checkCounts(c, "-n", n); err != nil {
		return err
	}
	plan, err := buildMixedPlan(mixSpec, n, runs)
	if err != nil {
		return err
	}
	catalogue := make(map[string]bool)
	for _, name := range telemetry.SpanNames() {
		catalogue[name] = true
	}
	client := &http.Client{Timeout: 60 * time.Second}
	results, elapsed := drive(plan, c, func(item workItem) traceOutcome {
		return fireTracePair(client, addr, item, catalogue)
	})

	var (
		failures, spans int
		firstErr        error
		byEndpoint      = make(map[string][]time.Duration)
	)
	for _, res := range results {
		if res.err != nil {
			failures++
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		spans += res.spans
		byEndpoint[res.endpoint] = append(byEndpoint[res.endpoint], res.latency)
	}

	fmt.Fprintf(w, "pairs:       %d (%d failed)\n", len(results), failures)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "spans:       %d across all traced responses\n", spans)
	reportEndpoints(w, byEndpoint, ", traced")
	if failures > 0 {
		return fmt.Errorf("%d trace pairs failed, first: %w", failures, firstErr)
	}
	fmt.Fprintf(w, "trace:       all pairs byte-identical after stripping the trace block\n")
	return nil
}
