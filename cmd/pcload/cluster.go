package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// runCluster drives a pcfront cluster and proves the cluster contract
// from the client side: every response body must be byte-identical to
// a direct single-node answer. The workload is the mixed rotation
// (/measure, /analyze, /plan, /infer) fired at the front; then every
// distinct request is fired once at the -direct node and the bodies
// compared byte for byte, answers the front gave from its cache
// included. The report adds the routing view (cache hits, attempts,
// hedges, fleet state from the front's /healthz) and the encode-stage
// share of the direct node's /measure p99 — the measurement behind the
// pooled-encoder decision in docs/CLUSTER.md.
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
	outcomes, elapsed := executePlan(frontAddr, plan, c)

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
		failures, divergent, multiAttempt, hedged, retried, hits int
		byEndpoint                                               = make(map[string][]time.Duration)
		byBackend                                                = make(map[string]int)
		attemptDist                                              = make(map[int]int)
		all                                                      []time.Duration
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
	fmt.Fprintf(w, "byte-identity: %d distinct requests, every cluster response byte-identical to direct\n", len(distinct))
	reportEncodeShare(w, directAddr)
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
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

// reportEncodeShare scrapes a pcserved node's /metrics and reports the
// encode stage's p99 as a share of the /measure endpoint's p99 — the
// measurement the pooled-encoder decision rests on (docs/CLUSTER.md:
// ship one only if serialization exceeds ~10% of the request budget).
// Best-effort: a node without traffic or an unreachable /metrics just
// reports why.
func reportEncodeShare(w io.Writer, addr string) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		fmt.Fprintf(w, "encode share: (metrics unreachable: %v)\n", err)
		return
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		fmt.Fprintf(w, "encode share: (reading metrics: %v)\n", err)
		return
	}
	encodeP99, eok := promHistogramP99(text, "pcserved_stage_duration_seconds_bucket", `stage="encode"`)
	measureP99, mok := promHistogramP99(text, "pcserved_http_request_duration_seconds_bucket", `endpoint="/measure"`)
	if !eok || !mok || measureP99 <= 0 {
		fmt.Fprintf(w, "encode share: (no /measure traffic recorded on %s)\n", addr)
		return
	}
	share := encodeP99 / measureP99
	verdict := "below the ~10% pooled-encoder threshold; stock encoding stays"
	if share > 0.10 {
		verdict = "above the ~10% threshold; consider the pooled encoder (docs/CLUSTER.md)"
	}
	fmt.Fprintf(w, "encode share: encode p99 %.3gs / measure p99 %.3gs = %.1f%% — %s\n",
		encodeP99, measureP99, share*100, verdict)
}

// promHistogramP99 computes an upper-bound p99 from a Prometheus
// histogram's cumulative buckets in text exposition: the smallest
// bucket boundary covering 99% of observations, linearly interpolated
// within the bucket. Matches samples named family whose label set
// contains labelPair (name="value").
func promHistogramP99(text []byte, family, labelPair string) (float64, bool) {
	fams, err := telemetry.ParseExposition(bytes.NewReader(text))
	if err != nil {
		return 0, false
	}
	name, value, _ := strings.Cut(labelPair, "=")
	value = strings.Trim(value, `"`)
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	for _, fam := range fams {
		for _, s := range fam.Samples {
			if s.Name != family || !slices.Contains(s.Labels, telemetry.Annotation{Key: name, Value: value}) {
				continue
			}
			for _, l := range s.Labels {
				if l.Key != "le" {
					continue
				}
				if le, err := strconv.ParseFloat(l.Value, 64); err == nil {
					buckets = append(buckets, bucket{le: le, count: s.Value})
				}
			}
		}
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].count // +Inf bucket is cumulative total
	if total == 0 {
		return 0, false
	}
	target := 0.99 * total
	prevLe, prevCount := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= target {
			if math.IsInf(b.le, 1) { // no upper bound to interpolate to
				return prevLe, true
			}
			if b.count == prevCount {
				return b.le, true
			}
			frac := (target - prevCount) / (b.count - prevCount)
			return prevLe + frac*(b.le-prevLe), true
		}
		prevLe, prevCount = b.le, b.count
	}
	return buckets[len(buckets)-1].le, true
}
