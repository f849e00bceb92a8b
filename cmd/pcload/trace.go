package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// traceOutcome records one traced+untraced pair and the contract
// checks made on it.
type traceOutcome struct {
	endpoint string
	latency  time.Duration // the traced request's latency
	spans    int           // spans in the traced response's own block
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

// fireTracePair posts the item untraced and traced to addr, then checks
// the observability contract: no trace block without opt-in, a block
// with opt-in, and byte-identical bodies once the block is stripped.
//
// With a direct node, addr is a pcfront and the block must be its
// stitched tree: an origin, front spans from the cluster-tier catalogue
// including route and forward, and the backend's own trace nested
// underneath. That trace must have the shape of a traced answer from
// the direct node, whose stripped body must equal the front's.
//
// Either way, the node's trace, the block itself or the backend's under
// the front, must draw every span from the node catalogue.
func fireTracePair(client *http.Client, addr, direct string, item workItem) traceOutcome {
	ep := item.endpoint()
	out := traceOutcome{endpoint: ep}
	fail := func(err error) traceOutcome {
		out.err = fmt.Errorf("%s: %w", ep, err)
		return out
	}
	plain, err := postOK(client, addr, ep, item.payload())
	if err != nil {
		return fail(err)
	}
	traced, err := postOK(client, addr, ep, withTrace(item))
	out.latency = traced.latency
	if err != nil {
		return fail(err)
	}
	plainStripped, plainTrace, err := stripTraceBlock(plain.body)
	if err != nil {
		return fail(err)
	}
	if plainTrace != nil {
		return fail(errors.New("untraced response carries a trace block"))
	}
	tracedStripped, node, err := stripTraceBlock(traced.body)
	if err != nil {
		return fail(err)
	}
	if node == nil {
		return fail(errors.New("traced response has no trace block"))
	}
	if tracedStripped != plainStripped {
		return fail(errors.New("TRACE VIOLATION: bodies differ beyond the trace block"))
	}
	out.spans = len(node.Spans)

	if direct != "" {
		if node, err = unstitch(node); err != nil {
			return fail(err)
		}
		ref, err := postOK(client, direct, ep, withTrace(item))
		if err != nil {
			return fail(err)
		}
		refStripped, refTrace, err := stripTraceBlock(ref.body)
		if err != nil {
			return fail(err)
		}
		if refTrace == nil {
			return fail(errors.New("direct traced response has no trace block"))
		}
		if node.Shape() != refTrace.Shape() {
			return fail(fmt.Errorf("CLUSTER TRACE VIOLATION: backend subtree shape %q, direct trace shape %q",
				node.Shape(), refTrace.Shape()))
		}
		if refStripped != plainStripped {
			return fail(errors.New("CLUSTER TRACE VIOLATION: front body diverges from the direct node"))
		}
	}

	if len(node.Spans) == 0 {
		return fail(errors.New("node trace has no spans"))
	}
	for _, sp := range node.Spans {
		if !slices.Contains(telemetry.SpanNames(), sp.Name) {
			return fail(fmt.Errorf("span %q not in the node catalogue", sp.Name))
		}
		if sp.DurationNs < 0 {
			return fail(fmt.Errorf("span %q has negative duration", sp.Name))
		}
	}
	return out
}

// unstitch checks a pcfront's layer of a stitched trace, an origin and
// cluster-tier spans including route and forward, and returns the
// backend's trace nested under it.
func unstitch(tr *api.TraceInfo) (*api.TraceInfo, error) {
	if tr.Origin == "" {
		return nil, errors.New("stitched tree names no origin")
	}
	route, forward := 0, 0
	for _, sp := range tr.Spans {
		if !slices.Contains(telemetry.FrontSpanNames(), sp.Name) {
			return nil, fmt.Errorf("front span %q not in the cluster-tier catalogue", sp.Name)
		}
		switch sp.Name {
		case telemetry.SpanRoute:
			route++
		case telemetry.SpanForward:
			forward++
		}
	}
	if route == 0 || forward == 0 {
		return nil, fmt.Errorf("stitched tree missing route/forward spans (%d route, %d forward)", route, forward)
	}
	if len(tr.Backend) == 0 {
		return nil, errors.New("stitched tree has no backend subtree")
	}
	var sub api.TraceInfo
	if err := json.Unmarshal(tr.Backend, &sub); err != nil {
		return nil, fmt.Errorf("backend subtree does not decode: %w", err)
	}
	return &sub, nil
}

// runTrace drives the -trace workload: n traced+untraced pairs
// rotating through /measure, /analyze, /plan, and /infer across c
// workers, failing the run if any pair violates the observability
// contract, or if no pair was checked. With direct set, addr is a
// pcfront and every pair also checks its stitched tree against the
// direct node.
func runTrace(w io.Writer, addr, direct, mixSpec string, n, c, runs int) error {
	if err := checkCounts(c, "-n", n); err != nil {
		return err
	}
	plan, err := buildMixedPlan(mixSpec, n, runs)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}
	results, elapsed := drive(plan, c, func(item workItem) traceOutcome {
		return fireTracePair(client, addr, direct, item)
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
	if len(results) == 0 {
		return fmt.Errorf("no pair was sent, so the trace check ran on nothing")
	}
	fmt.Fprintf(w, "trace:       all pairs byte-identical after stripping the trace block\n")
	if direct != "" {
		fmt.Fprintf(w, "stitching:   every tree carries route+forward spans and a backend subtree shape-identical to the direct node\n")
	}
	return nil
}
