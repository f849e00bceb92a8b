package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// outcome records one completed request.
type outcome struct {
	endpoint string
	reply
	err error
}

// runCluster drives a pcfront cluster and proves the cluster contract
// from the client side: every response body must be byte-identical to
// a direct single-node answer. The workload is the mixed rotation
// (/measure, /analyze, /plan, /infer) fired at the front; then every
// distinct request is fired once at the -direct node and the bodies
// compared byte for byte, answers the front gave from its cache
// included; a run that compared none fails. The report adds the
// routing view (cache hits, attempts, hedges, fleet state from the
// front's /healthz).
func runCluster(w io.Writer, frontAddr, directAddr, mixSpec string, n, c, runs int) error {
	if directAddr == "" {
		return fmt.Errorf("-cluster needs -direct, the single pcserved node to cross-check against")
	}
	if err := checkCounts(c, "-n", n); err != nil {
		return err
	}
	plan, err := buildMixedPlan(mixSpec, n, runs)
	if err != nil {
		return err
	}

	// Every body is captured, success or error: error bodies are part of
	// the byte-identity contract too.
	client := &http.Client{Timeout: 60 * time.Second}
	outcomes, elapsed := drive(plan, c, func(item workItem) outcome {
		rep, err := post(client, frontAddr, item.endpoint(), item.payload())
		return outcome{endpoint: item.endpoint(), reply: rep, err: err}
	})

	// Direct reference pass: one request per distinct body. The direct
	// node computes each answer independently; determinism is what makes
	// it the oracle for the whole fleet.
	distinct := make(map[string]string) // request body -> endpoint
	for _, out := range outcomes {
		if out.err == nil {
			distinct[string(out.sent)] = out.endpoint
		}
	}
	reference := directReference(directAddr, distinct, c)

	var (
		failures, compared, divergent, multiAttempt, hedged, retried, hits int
		byEndpoint                                                         = make(map[string][]time.Duration)
		byBackend                                                          = make(map[string]int)
		attemptDist                                                        = make(map[int]int)
		all                                                                []time.Duration
	)
	for _, out := range outcomes {
		if out.err != nil || out.status != http.StatusOK {
			failures++
			continue
		}
		all = append(all, out.latency)
		byEndpoint[out.endpoint] = append(byEndpoint[out.endpoint], out.latency)
		// A hit made no attempt, and its backend header names the node
		// that produced the stored answer, not a winner: it stays out of
		// the routing view but not out of the byte-identity check.
		if out.header.Get(api.HeaderCache) == "hit" {
			hits++
		} else {
			attempts, _ := strconv.Atoi(out.header.Get(api.HeaderAttempts))
			if attempts > 1 {
				multiAttempt++
			}
			if out.header.Get(api.HeaderHedged) == "true" {
				hedged++
			} else if attempts > 1 {
				retried++
			}
			if backend := out.header.Get(api.HeaderBackend); backend != "" {
				byBackend[backend]++
			}
			attemptDist[attempts]++
		}
		ref, ok := reference[string(out.sent)]
		if !ok {
			failures++
			continue
		}
		compared++
		if !bytes.Equal(out.body, ref) {
			divergent++
		}
	}

	fmt.Fprintf(w, "cluster:     front=%s direct=%s\n", frontAddr, directAddr)
	reportHead(w, "requests", "req", len(outcomes), failures, elapsed, all)
	reportEndpoints(w, byEndpoint, "")
	fmt.Fprintf(w, "reuse:       %d/%d answered from the front's cache (%s: hit)\n", hits, len(outcomes), api.HeaderCache)
	fmt.Fprintf(w, "routing:     %d multi-attempt, %d hedge-won (from response headers)\n", multiAttempt, hedged)
	if len(all) > 0 {
		fmt.Fprintf(w, "hedge rate:  %.1f%% (%d/%d); retry rate: %.1f%% (%d/%d)\n",
			100*float64(hedged)/float64(len(all)), hedged, len(all),
			100*float64(retried)/float64(len(all)), retried, len(all))
	}
	// Per-backend distribution of winning responses, and how many
	// attempts requests took — both from the X-Pcfront-* headers, so this
	// is the client's view of the routing policy, not the front's.
	if len(byBackend) > 0 {
		names := make([]string, 0, len(byBackend))
		for name := range byBackend {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s=%d", name, byBackend[name])
		}
		fmt.Fprintf(w, "backends:    %s (winner per forwarded response)\n", strings.Join(parts, " "))
	}
	if len(attemptDist) > 0 {
		counts := make([]int, 0, len(attemptDist))
		for a := range attemptDist {
			counts = append(counts, a)
		}
		sort.Ints(counts)
		parts := make([]string, len(counts))
		for i, a := range counts {
			parts[i] = fmt.Sprintf("%dx%d", attemptDist[a], a)
		}
		fmt.Fprintf(w, "attempts:    %s (forwarded requests x attempts)\n", strings.Join(parts, " "))
	}
	reportFleet(w, frontAddr)

	if divergent > 0 {
		fmt.Fprintf(w, "CLUSTER DIVERGENCE: %d responses differ from the direct node\n", divergent)
		return fmt.Errorf("%d responses diverged from the direct node", divergent)
	}
	if compared > 0 {
		fmt.Fprintf(w, "byte-identity: %d distinct requests, every cluster response byte-identical to direct\n", len(distinct))
	}
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	if compared == 0 {
		return fmt.Errorf("no response was compared with the direct node, so the byte-identity check ran on nothing")
	}
	return nil
}

// directReference fires each distinct request once at the direct node
// and returns its body per request body.
func directReference(addr string, distinct map[string]string, c int) map[string][]byte {
	client := &http.Client{Timeout: 60 * time.Second}
	type job struct{ body, endpoint string }
	jobs := make([]job, 0, len(distinct))
	for body, endpoint := range distinct {
		jobs = append(jobs, job{body, endpoint})
	}
	replies, _ := drive(jobs, c, func(j job) outcome {
		rep, err := post(client, addr, j.endpoint, json.RawMessage(j.body))
		return outcome{reply: rep, err: err}
	})
	out := make(map[string][]byte, len(replies))
	for _, rep := range replies {
		if rep.err == nil {
			out[string(rep.sent)] = rep.body
		}
	}
	return out
}

// reportFleet prints the front's view of its backends (states, hedge
// and retry engagement) from GET /healthz. Best-effort: a scrape
// failure is reported, never fatal.
func reportFleet(w io.Writer, frontAddr string) {
	resp, err := http.Get(frontAddr + "/healthz")
	if err != nil {
		fmt.Fprintf(w, "fleet:       (healthz unreachable: %v)\n", err)
		return
	}
	defer resp.Body.Close()
	var h api.ClusterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		fmt.Fprintf(w, "fleet:       (bad healthz body: %v)\n", err)
		return
	}
	states := make([]string, len(h.Nodes))
	for i, n := range h.Nodes {
		states[i] = fmt.Sprintf("%s=%s(%dreq,%derr)", n.Name, n.State, n.Requests, n.Errors)
	}
	fmt.Fprintf(w, "fleet:       %s; status=%s hedged=%d hedge-wins=%d retried=%d\n",
		strings.Join(states, " "), h.Status, h.Hedged, h.HedgeWins, h.Retried)
}
