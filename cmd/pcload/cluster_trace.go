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

// clusterTraceOutcome records one stitched-trace check against a
// pcfront cluster.
type clusterTraceOutcome struct {
	endpoint string
	spans    int // front spans in the stitched tree
	err      error
}

// fireClusterTracePair drives the cluster-tracing contract for one
// item: a traced and an untraced request through the front, plus a
// traced request to the direct node, asserting that
//
//   - the stitched tree carries the front's route and forward spans,
//     every one drawn from the front span catalogue, with the origin
//     naming the proxy;
//   - the backend subtree is present, catalogued, and shape-identical
//     to the direct node's own trace — the proxied trace is the direct
//     trace with the cluster tier stacked on top, nothing rewritten;
//   - stripping the trace block yields bodies byte-identical across
//     traced/untraced and front/direct — tracing never perturbs the
//     answer, and the cluster contract survives the trace rewrite.
func fireClusterTracePair(client *http.Client, frontAddr, directAddr string, item workItem, frontCat, nodeCat map[string]bool) clusterTraceOutcome {
	out := clusterTraceOutcome{endpoint: item.endpoint()}
	fail := func(format string, args ...any) clusterTraceOutcome {
		out.err = fmt.Errorf("%s: "+format, append([]any{item.endpoint()}, args...)...)
		return out
	}

	plain, err := postOK(client, frontAddr, item.endpoint(), item.payload())
	if err != nil {
		out.err = err
		return out
	}
	traced, err := postOK(client, frontAddr, item.endpoint(), withTrace(item))
	if err != nil {
		out.err = err
		return out
	}
	direct, err := postOK(client, directAddr, item.endpoint(), withTrace(item))
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
		return fail("untraced response through the front carries a trace block")
	}
	tracedStripped, stitched, err := stripTraceBlock(traced.body)
	if err != nil {
		out.err = err
		return out
	}
	if stitched == nil || len(stitched.Spans) == 0 {
		return fail("traced response has no stitched spans")
	}
	directStripped, directTrace, err := stripTraceBlock(direct.body)
	if err != nil {
		out.err = err
		return out
	}
	if directTrace == nil {
		return fail("direct traced response has no trace block")
	}

	if stitched.Origin == "" {
		return fail("stitched tree names no origin")
	}
	route, forward := 0, 0
	for _, sp := range stitched.Spans {
		if !frontCat[sp.Name] {
			return fail("front span %q not in the cluster-tier catalogue", sp.Name)
		}
		switch sp.Name {
		case telemetry.SpanRoute:
			route++
		case telemetry.SpanForward:
			forward++
		}
	}
	if route == 0 || forward == 0 {
		return fail("stitched tree missing route/forward spans (%d route, %d forward)", route, forward)
	}
	out.spans = len(stitched.Spans)

	if len(stitched.Backend) == 0 {
		return fail("stitched tree has no backend subtree")
	}
	var sub api.TraceInfo
	if err := json.Unmarshal(stitched.Backend, &sub); err != nil {
		return fail("backend subtree does not decode: %v", err)
	}
	if len(sub.Spans) == 0 {
		return fail("backend subtree has no spans")
	}
	for _, sp := range sub.Spans {
		if !nodeCat[sp.Name] {
			return fail("backend span %q not in the node catalogue", sp.Name)
		}
	}
	if sub.Shape() != directTrace.Shape() {
		return fail("CLUSTER TRACE VIOLATION: backend subtree shape %q, direct trace shape %q",
			sub.Shape(), directTrace.Shape())
	}

	if tracedStripped != plainStripped {
		return fail("CLUSTER TRACE VIOLATION: traced/untraced bodies differ beyond the trace block")
	}
	if plainStripped != directStripped {
		return fail("CLUSTER TRACE VIOLATION: front body diverges from the direct node")
	}
	return out
}

// runClusterTrace drives the -cluster -trace workload: the mixed
// rotation fired as stitched-trace checks through a pcfront cluster,
// cross-checked span-by-span and byte-by-byte against the -direct
// node.
func runClusterTrace(w io.Writer, frontAddr, directAddr, mixSpec string, n, c, runs int) error {
	if directAddr == "" {
		return fmt.Errorf("-cluster -trace needs -direct, the single pcserved node to cross-check against")
	}
	if err := checkCounts(c, "-n", n); err != nil {
		return err
	}
	plan, err := buildMixedPlan(mixSpec, n, runs)
	if err != nil {
		return err
	}
	frontCat, nodeCat := make(map[string]bool), make(map[string]bool)
	for _, name := range telemetry.FrontSpanNames() {
		frontCat[name] = true
	}
	for _, name := range telemetry.SpanNames() {
		nodeCat[name] = true
	}

	client := &http.Client{Timeout: 60 * time.Second}
	results, elapsed := drive(plan, c, func(item workItem) clusterTraceOutcome {
		return fireClusterTracePair(client, frontAddr, directAddr, item, frontCat, nodeCat)
	})

	var failures, spans int
	var firstErr error
	for _, res := range results {
		if res.err != nil {
			failures++
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		spans += res.spans
	}
	fmt.Fprintf(w, "cluster trace: front=%s direct=%s\n", frontAddr, directAddr)
	fmt.Fprintf(w, "checks:      %d (%d failed)\n", len(results), failures)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "front spans: %d across all stitched trees\n", spans)
	if failures > 0 {
		return fmt.Errorf("%d cluster trace checks failed, first: %w", failures, firstErr)
	}
	fmt.Fprintf(w, "stitching:   every tree carries route+forward spans and a backend subtree shape-identical to the direct node\n")
	return nil
}
