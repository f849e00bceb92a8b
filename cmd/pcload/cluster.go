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
	"sync"
	"time"

	"repro/internal/api"
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
	if c <= 0 {
		return fmt.Errorf("-c must be positive (got %d)", c)
	}
	if n < 0 {
		return fmt.Errorf("-n must be non-negative (got %d)", n)
	}
	plan, err := buildMixedPlan(mixSpec, n, runs)
	if err != nil {
		return err
	}

	outcomes, elapsed := executeCluster(frontAddr, plan, c)

	// Direct reference pass: one request per distinct body. The direct
	// node computes each answer independently; determinism is what makes
	// it the oracle for the whole fleet.
	distinct := make(map[string]string) // request body -> endpoint
	for _, out := range outcomes {
		if out.err == nil {
			distinct[string(out.reqBody)] = out.endpoint
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
		if out.hit {
			hits++
		} else {
			if out.attempts > 1 {
				multiAttempt++
			}
			if out.hedged {
				hedged++
			} else if out.attempts > 1 {
				retried++
			}
			if out.backend != "" {
				byBackend[out.backend]++
			}
			attemptDist[out.attempts]++
		}
		ref, ok := reference[string(out.reqBody)]
		if !ok {
			failures++
			continue
		}
		if !bytes.Equal(out.body, ref) {
			divergent++
		}
	}

	fmt.Fprintf(w, "cluster:     front=%s direct=%s\n", frontAddr, directAddr)
	fmt.Fprintf(w, "requests:    %d (%d failed)\n", len(outcomes), failures)
	fmt.Fprintf(w, "elapsed:     %v\n", elapsed.Round(time.Millisecond))
	if len(all) > 0 && elapsed > 0 {
		fmt.Fprintf(w, "throughput:  %.1f req/s\n", float64(len(all))/elapsed.Seconds())
	}
	fmt.Fprintf(w, "latency:     %s\n", summarizeLatency(all))
	endpoints := make([]string, 0, len(byEndpoint))
	for ep := range byEndpoint {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		fmt.Fprintf(w, "  %-10s %s (n=%d)\n", ep+":", summarizeLatency(byEndpoint[ep]), len(byEndpoint[ep]))
	}
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

// clusterOutcome is one front-routed request with the proxy's routing
// metadata read back from the response headers.
type clusterOutcome struct {
	endpoint string
	reqBody  []byte
	body     []byte
	status   int
	latency  time.Duration
	attempts int
	hedged   bool
	hit      bool
	backend  string
	err      error
}

// executeCluster fires the plan at the front through c workers,
// capturing complete bodies (success or error — error bodies are part
// of the byte-identity contract too) and the X-Pcfront-* headers.
func executeCluster(frontAddr string, plan []workItem, c int) ([]clusterOutcome, time.Duration) {
	client := &http.Client{Timeout: 60 * time.Second}
	work := make(chan workItem)
	results := make(chan clusterOutcome, len(plan))
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range work {
				results <- fireCluster(client, frontAddr, item)
			}
		}()
	}
	start := time.Now()
	for _, item := range plan {
		work <- item
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	close(results)
	out := make([]clusterOutcome, 0, len(plan))
	for res := range results {
		out = append(out, res)
	}
	return out, elapsed
}

func fireCluster(client *http.Client, addr string, item workItem) clusterOutcome {
	path := item.endpoint()
	reqBody, err := json.Marshal(item.payload())
	if err != nil {
		return clusterOutcome{endpoint: path, err: err}
	}
	start := time.Now()
	resp, err := client.Post(addr+path, "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return clusterOutcome{endpoint: path, reqBody: reqBody, err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	attempts, _ := strconv.Atoi(resp.Header.Get(api.HeaderAttempts))
	return clusterOutcome{
		endpoint: path,
		reqBody:  reqBody,
		body:     body,
		status:   resp.StatusCode,
		latency:  time.Since(start),
		attempts: attempts,
		hedged:   resp.Header.Get(api.HeaderHedged) == "true",
		hit:      resp.Header.Get(api.HeaderCache) == "hit",
		backend:  resp.Header.Get(api.HeaderBackend),
		err:      err,
	}
}

// directReference fires each distinct request once at the direct node
// and returns its body per request body.
func directReference(addr string, distinct map[string]string, c int) map[string][]byte {
	type job struct{ body, endpoint string }
	client := &http.Client{Timeout: 60 * time.Second}
	work := make(chan job)
	var mu sync.Mutex
	out := make(map[string][]byte, len(distinct))
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				resp, err := client.Post(addr+j.endpoint, "application/json", strings.NewReader(j.body))
				if err != nil {
					continue
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					continue
				}
				mu.Lock()
				out[j.body] = data
				mu.Unlock()
			}
		}()
	}
	for body, endpoint := range distinct {
		work <- job{body: body, endpoint: endpoint}
	}
	close(work)
	wg.Wait()
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
// within the bucket. Matches lines of the given family whose label set
// contains labelPair.
func promHistogramP99(text []byte, family, labelPair string) (float64, bool) {
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		labels, value, ok := cutPromLine(line, family)
		if !ok || !strings.Contains(labels, labelPair) {
			continue
		}
		leStr, ok := promLabel(labels, "le")
		if !ok {
			continue
		}
		le, err := parsePromFloat(leStr)
		if err != nil {
			continue
		}
		count, err := strconv.ParseFloat(value, 64)
		if err != nil {
			continue
		}
		buckets = append(buckets, bucket{le: le, count: count})
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
			if b.le > 1e300 { // the +Inf bucket: no upper bound to interpolate to
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

// cutPromLine splits `family{labels} value` into its labels and value.
func cutPromLine(line, family string) (labels, value string, ok bool) {
	rest := strings.TrimPrefix(line, family+"{")
	end := strings.Index(rest, "}")
	if end < 0 {
		return "", "", false
	}
	return rest[:end], strings.TrimSpace(rest[end+1:]), true
}

// promLabel extracts one label's value from a serialized label set.
func promLabel(labels, name string) (string, bool) {
	for _, part := range strings.Split(labels, ",") {
		k, v, ok := strings.Cut(part, "=")
		if ok && k == name {
			return strings.Trim(v, `"`), true
		}
	}
	return "", false
}

// parsePromFloat parses a bucket boundary, accepting "+Inf".
func parsePromFloat(s string) (float64, error) {
	if s == "+Inf" {
		return 1e308, nil
	}
	return strconv.ParseFloat(s, 64)
}
