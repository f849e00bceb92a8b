package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign/gen"
)

// config fixes one benchmark run.
type config struct {
	seed    uint64
	seconds int
	trace   bool
	// setups is how many cold starts the setup phase makes; the last
	// one continues into the timed phases.
	setups int
	// clients is the number of client goroutines, and the bound on
	// connections: min(nproc, 4).
	clients int
	start   starter
	log     io.Writer
	// out is the directory span files are written to ("" for none).
	out string
}

// windows is how many equal windows each timed phase is split into.
// Rates, latencies and CPU cost are medians over the windows, so a
// burst of contention from outside the benchmark that covers less than
// half of a phase does not move them.
const windows = 10

// verifySample is how many distinct bodies the correctness gate
// re-issues.
const verifySample = 256

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload through setup, the closed and open
// loops, and the correctness gate, and with cfg.trace the in-process
// layer ladder.
func runWorkload(w *workload, cfg config) (*result, error) {
	lg := cfg.log
	phaseLen := time.Duration(cfg.seconds) * time.Second / 2
	c := newClient(cfg.clients)
	defer c.CloseIdleConnections()
	rec := newRecorder()
	var attempted int64
	fmt.Fprintf(lg, "== %s  seed %d  %ds measured  %d clients\n", w.name, cfg.seed, cfg.seconds, cfg.clients)

	// Setup: cold starts through the warm-up set, timed end to end.
	warm := w.warmup(cfg.seed)
	var setups []float64
	var f *fleet
	for i := 0; i < cfg.setups; i++ {
		t0 := time.Now()
		var err error
		if f, err = cfg.start(w.cluster); err != nil {
			return nil, err
		}
		for _, o := range warm {
			for _, node := range f.nodes {
				attempted++
				if _, err := send(c, node, o); err != nil {
					rec.fail(fmt.Errorf("warm-up: %w", err))
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < cfg.setups-1 {
			f.stop()
		}
	}
	defer f.stop()
	fmt.Fprintf(lg, "setup    %d cold starts, %d warm-up ops to each of %d node(s): %s s\n",
		cfg.setups, len(warm), len(f.nodes), join(setups, "%.3f"))

	before, err := scrape(c, f.scraped)
	if err != nil {
		return nil, err
	}
	cpu := sampleCPU(f.pids, phaseLen, windows)
	closed, done := closedLoop(c, f.target, w, cfg.seed, 0, phaseLen, cfg.clients, rec)
	cpuTicks, err := cpu()
	if err != nil {
		return nil, err
	}
	open, latency, lag := openLoop(c, f.target, w, cfg.seed, int(closed.sent), phaseLen, cfg.clients, rec)
	after, err := scrape(c, f.scraped)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(f.pids)
	if err != nil {
		return nil, err
	}
	attempted += closed.sent + open.sent

	windowSec := phaseLen.Seconds() / windows
	throughput, perWindow := windowed(done, phaseLen, windows, func(v []float64) float64 { return float64(len(v)) / windowSec })
	cpuPerReq := 0.0
	if len(f.pids) > 0 {
		costs := make([]float64, windows)
		for k, n := range perWindow {
			costs[k] = ratio(ms(time.Duration(cpuTicks[k])*clockTick), n*windowSec)
		}
		cpuPerReq = median(costs)
	}
	lat := sorted(values(latency))
	p50, _ := windowed(latency, phaseLen, windows, func(v []float64) float64 { return percentile(sorted(v), 0.50) })
	p90, _ := windowed(latency, phaseLen, windows, func(v []float64) float64 { return percentile(sorted(v), 0.90) })
	lags := sorted(values(lag))
	fmt.Fprintf(lg, "closed   %v  %s  throughput %.1f req/s (median of %d windows: %s)\n",
		phaseLen, closed, throughput, windows, join(perWindow, "%.0f"))
	fmt.Fprintf(lg, "open     %v  %s  at %.0f/s  latency p50 %.3f ms, p90 %.3f ms (medians of %d windows of ~%d), p99 %.3f ms (n=%d, %d beyond)  send lag p99 %.3f ms (n=%d)\n",
		phaseLen, open, w.rate, p50, p90, windows, len(lat)/windows, percentile(lat, 0.99), len(lat), beyond(len(lat), 0.99),
		percentile(lags, 0.99), len(lags))
	if beyond(len(lat), 0.99) < minBeyond {
		fmt.Fprintf(lg, "open     p99 has fewer than %d samples beyond it: diagnostic only\n", minBeyond)
	}

	va, vf := verify(c, f, w, cfg.seed, rec)
	attempted += va
	fmt.Fprintf(lg, "verify   %d checks  %d failed\n", va, vf)

	res := &result{Attempted: attempted}
	res.Failed = rec.failures
	e2e := map[string]metric{
		"throughput_rps":        {throughput, "req/s"},
		"latency_p50_ms":        {p50, "ms"},
		"latency_p90_ms":        {p90, "ms"},
		"server_cpu_ms_per_req": {cpuPerReq, "ms"},
		"server_rss_mb":         {float64(rss) / 1e6, "MB"},
		"setup_s":               {median(setups), "s"},
	}
	printMetrics(lg, "metric", e2e)
	fmt.Fprintf(lg, "errors   %d of %d attempted (error rate %.4g)\n", res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	res.Metrics = e2e

	delta := after.since(before)
	timedOps := float64(closed.ok + open.ok)
	if cfg.trace {
		lad, err := runLadder(w, cfg)
		if err != nil {
			return nil, err
		}
		res.Attempted += lad.attempted
		res.Failed += lad.failed
		res.Metrics = lad.metrics
		scraped := scrapedLayers(delta, after, timedOps, w.cluster)
		for k, v := range scraped {
			res.Metrics[k] = v
		}
		res.Metrics["client.send_lag_p99_ms"] = metric{percentile(lags, 0.99), "ms"}
		res.Metrics["client.latency_p99_ms"] = metric{percentile(lat, 0.99), "ms"}
		lad.print(lg, res.Metrics)
	}
	for _, m := range rec.first {
		fmt.Fprintf(lg, "failure  %s\n", m)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// verify is the correctness gate: it re-issues a seeded sample of
// distinct bodies from the timed phases and requires answers
// byte-identical to the first ones; /measure and /analyze answers must
// also report the analytic instruction count. Through pcfront, each
// answer is also compared with a node's direct answer. A sampled
// session opens a second session identical to the first and compares
// the two NDJSON streams.
func verify(c *http.Client, f *fleet, w *workload, seed uint64, rec *recorder) (attempted, failed int64) {
	idx := make([]int, 0, len(rec.hashes))
	for i := range rec.hashes {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	r := newRNG(seed, domainSample)
	seen := make(map[string]bool)
	check := func(err error) {
		attempted++
		if err != nil {
			failed++
			rec.fail(fmt.Errorf("verify: %w", err))
		}
	}
	for n := 0; n < len(idx) && len(seen) < verifySample; n++ {
		k := n + r.intn(len(idx)-n)
		idx[n], idx[k] = idx[k], idx[n]
		i := idx[n]
		o := w.op(seed, i)
		if seen[string(o.body)] {
			continue
		}
		seen[string(o.body)] = true
		a, err := send(c, f.target, o)
		if err == nil && a.hash != rec.hashes[i] {
			err = fmt.Errorf("%s op %d: answer differs from the timed phase's", o.kind.path(), i)
		}
		if err == nil {
			err = checkTruth(o, a.body)
		}
		check(err)
		if w.cluster {
			node := f.nodes[len(seen)%len(f.nodes)]
			d, err := send(c, node, o)
			if err == nil && d.hash != a.hash {
				err = fmt.Errorf("%s op %d: front and node %s answer differently", o.kind.path(), i, node)
			}
			check(err)
		}
	}
	return attempted, failed
}

// checkTruth compares the instruction count a /measure or /analyze
// answer reports with the benchmark's analytic ground truth.
func checkTruth(o op, body []byte) error {
	var got int64
	switch o.kind {
	case kindMeasure:
		var m struct {
			Expected int64 `json:"expected"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return err
		}
		got = m.Expected
	case kindAnalyze:
		var a struct {
			Results []struct {
				Expected int64 `json:"expected"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &a); err != nil || len(a.Results) != 1 {
			return fmt.Errorf("/analyze: bad answer %.200s", body)
		}
		got = a.Results[0].Expected
	default:
		return nil
	}
	want, err := truth(o.bench)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s %s: expected %d, analytic truth %d", o.kind.path(), o.bench, got, want)
	}
	return nil
}

// truth is a benchmark's analytic retired-instruction count: 1+3n for
// loop:n, 1+4n for array:n, the generator's count for gen programs.
func truth(bench string) (int64, error) {
	name, arg, _ := strings.Cut(bench, ":")
	switch name {
	case "null":
		return 0, nil
	case "loop", "array":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return 0, err
		}
		if name == "loop" {
			return 1 + 3*n, nil
		}
		return 1 + 4*n, nil
	case "gen":
		p, err := gen.Parse(bench)
		if err != nil {
			return 0, err
		}
		return p.ExpectedInstr(), nil
	}
	return 0, fmt.Errorf("no analytic truth for %q", bench)
}

// scrapedLayers derives the per-layer metrics the serving processes'
// own /metrics report over the timed phases.
func scrapedLayers(d, end exposition, ops float64, cluster bool) map[string]metric {
	hits := d.sum("pcserved_compile_cache_hits_total")
	calHits := d.sum("pcserved_calibration_cache_hits_total")
	leaders := d.sum("pcserved_coalesce_total", `role="leader"`)
	followers := d.sum("pcserved_coalesce_total", `role="follower"`)
	busy := requestSeconds(d)
	m := map[string]metric{
		"engine.compile_hit_rate":           {ratio(hits, hits+d.sum("pcserved_compile_cache_misses_total")), "ratio"},
		"engine.compile_evictions_per_kreq": {1000 * ratio(d.sum("pcserved_compile_cache_evictions_total"), ops), "count"},
		"service.calibration_hit_rate":      {ratio(calHits, calHits+d.sum("pcserved_calibration_cache_misses_total")), "ratio"},
		"service.coalesced_share":           {ratio(followers, leaders+followers), "ratio"},
		"service.pool_acquire_share":        {ratio(d.sum("pcserved_stage_duration_seconds_sum", `stage="pool-acquire"`), busy), "ratio"},
		"service.engine_run_stage_share":    {ratio(d.sum("pcserved_stage_duration_seconds_sum", `stage="engine-run"`), busy), "ratio"},
		"server.encode_share":               {ratio(d.sum("pcserved_stage_duration_seconds_sum", `stage="encode"`), busy), "ratio"},
		"runtime.gc_pauses_per_kreq":        {1000 * ratio(d.sum("pcserved_go_gc_pause_seconds_count")+d.sum("pcfront_go_gc_pause_seconds_count"), ops), "count"},
		"runtime.heap_live_mb":              {(end.sum("pcserved_go_heap_objects_bytes") + end.sum("pcfront_go_heap_objects_bytes")) / 1e6, "MB"},
	}
	if cluster {
		for k, v := range frontRatios(d) {
			m[k] = v
		}
	}
	return m
}

// frontRatios derives pcfront's backend attempts per request and the
// share of requests it hedged.
func frontRatios(d exposition) map[string]metric {
	reqs := d.sum("pcfront_http_requests_total") - d.sum("pcfront_http_requests_total", `endpoint="/healthz"`)
	return map[string]metric{
		"cluster.attempts_per_req": {ratio(d.sum("pcfront_backend_requests_total"), reqs), "ratio"},
		"cluster.hedge_rate":       {ratio(d.sum("pcfront_hedged_requests_total"), reqs), "ratio"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// requestSeconds is the serving time pcserved spent on the benchmark's
// operations: its request-duration sum over every route but the
// scrape and probe routes.
func requestSeconds(d exposition) float64 {
	return d.sum("pcserved_http_request_duration_seconds_sum") -
		d.sum("pcserved_http_request_duration_seconds_sum", `endpoint="/metrics"`) -
		d.sum("pcserved_http_request_duration_seconds_sum", `endpoint="/healthz"`)
}

// printMetrics writes one labelled line per metric, sorted by name.
func printMetrics(w io.Writer, label string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-8s %-36s %14.6g %s\n", label, k, ms[k].Value, ms[k].Unit)
	}
}

func join(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// finite replaces values JSON cannot carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
