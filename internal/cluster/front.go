package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// Front is the HTTP face of the cluster: the route table mirroring
// pcserved's, the answer cache for repeated stateless requests, the
// stream-owner pinning for stateful resources, and the proxy's own
// telemetry.
type Front struct {
	c         *Cluster
	answers   *answers
	sessions  *owners
	campaigns *owners
	handler   http.Handler

	reg      *telemetry.Registry
	runtime  *telemetry.Runtime
	requests *telemetry.CounterVec
	errors   *telemetry.CounterVec
	latency  *telemetry.HistogramVec
	backend  *telemetry.HistogramVec
	// stage pre-binds one histogram per front span name
	// (telemetry.FrontSpanNames), fed by the observer of every request's
	// trace — the cluster-tier mirror of pcserved's stage histograms.
	stage map[string]*telemetry.Histogram
}

// NewFront builds the cluster and its HTTP front end. Close the Front
// (not the Cluster) when done.
func NewFront(cfg Config) (*Front, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	f := &Front{
		c:         c,
		answers:   newAnswers(answerCacheBytes),
		sessions:  newOwners(4096),
		campaigns: newOwners(4096),
		reg:       telemetry.NewRegistry(),
		runtime:   telemetry.NewRuntime("pcfront"),
		stage:     make(map[string]*telemetry.Histogram),
	}
	buckets := telemetry.LogBuckets(1e-5, 10, 3)
	f.requests = f.reg.NewCounterVec("pcfront_http_requests_total",
		"Requests served by the cluster front end, by route pattern.", "endpoint")
	f.errors = f.reg.NewCounterVec("pcfront_http_errors_total",
		"Front-end responses with status >= 400, by route pattern.", "endpoint")
	f.latency = f.reg.NewHistogramVec("pcfront_http_request_duration_seconds",
		"Front-end request latency (routing + backend + hop), by route pattern.", buckets, "endpoint")
	f.backend = f.reg.NewHistogramVec("pcfront_backend_request_duration_seconds",
		"Per-attempt backend latency as observed by the proxy, by backend.", buckets, "backend")
	stageVec := f.reg.NewHistogramVec("pcfront_stage_duration_seconds",
		"Per-stage cluster-tier span durations (docs/OBSERVABILITY.md front span catalogue).",
		buckets, "stage")
	for _, name := range telemetry.FrontSpanNames() {
		f.stage[name] = stageVec.With(name)
	}
	c.observeAttempt = func(backend string, d time.Duration) {
		f.backend.With(backend).Observe(d)
	}
	f.handler = f.routes()
	return f, nil
}

// observeSpan feeds a finished front span into its stage histogram.
// Names outside the front catalogue are dropped rather than minting
// unbounded label values.
func (f *Front) observeSpan(sd telemetry.SpanData) {
	if h, ok := f.stage[sd.Name]; ok {
		h.Observe(sd.Duration)
	}
}

// Cluster exposes the fleet view (drain control, health, tests).
func (f *Front) Cluster() *Cluster { return f.c }

// Handler returns the front end's route table.
func (f *Front) Handler() http.Handler { return f.handler }

// Close stops the prober.
func (f *Front) Close() { f.c.Close() }

// routes assembles the proxy mux. The keyed endpoints mirror
// pcserved's POST surface, and the four stateless ones reuse answers;
// the stateful /sessions and /campaigns resources add owner-pinned
// sub-routes; /healthz, /metrics, and the /cluster admin routes are the
// proxy's own.
func (f *Front) routes() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, f.instrument(endpointLabel(pattern), h))
	}
	for _, path := range []string{"/measure", "/analyze", "/plan", "/infer"} {
		handle("POST "+path, f.keyed(path, true, f.answers, nil))
	}
	handle("POST /experiment", f.keyed("/experiment", true, nil, nil))
	// Stateful creations route by configuration key for affinity but
	// never hedge: a hedged create could mint two sessions, and the
	// loser's cancel may land after the backend committed. Nor are they
	// ever answered from the cache: each create must reach a node.
	handle("POST /sessions", f.keyed("/sessions", false, nil, f.sessions))
	handle("POST /campaigns", f.keyed("/campaigns", false, nil, f.campaigns))
	handle("GET /sessions/{id}", f.owned("sessions", f.sessions, false))
	handle("GET /sessions/{id}/stream", f.owned("sessions", f.sessions, true))
	handle("DELETE /sessions/{id}", f.owned("sessions", f.sessions, false))
	handle("GET /campaigns/{id}", f.owned("campaigns", f.campaigns, false))
	handle("GET /campaigns/{id}/stream", f.owned("campaigns", f.campaigns, true))
	handle("DELETE /campaigns/{id}", f.owned("campaigns", f.campaigns, false))
	handle("GET /healthz", f.healthz)
	handle("GET /cluster", f.healthz)
	handle("GET /cluster/healthz", f.clusterHealthz)
	handle("POST /cluster/drain/{node}", f.drain(true))
	handle("POST /cluster/undrain/{node}", f.drain(false))
	mux.HandleFunc("GET /metrics", f.serveMetrics)
	mux.HandleFunc("GET /cluster/metrics", f.clusterMetrics)
	return mux
}

// endpointLabel strips the method from a route pattern for metric
// labels, mirroring internal/server.
func endpointLabel(pattern string) string {
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		return pattern[i+1:]
	}
	return pattern
}

// instrument wraps a handler with the per-endpoint counters and the
// route latency histogram, and installs an observed trace in the
// request context so the cluster-tier spans Forward records land in
// the stage histograms on every request — traced or not.
func (f *Front) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	requests := f.requests.With(endpoint)
	errCount := f.errors.With(endpoint)
	latency := f.latency.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := telemetry.NewObserved(f.observeSpan)
		r = r.WithContext(telemetry.NewContext(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		requests.Inc()
		if sw.status >= 400 {
			errCount.Inc()
		}
		latency.Observe(time.Since(start))
	}
}

// keyed proxies one POST endpoint by canonical request key. When the
// body does not canonicalize (malformed or invalid), it is forwarded
// anyway under a raw-bytes key: the backend is the single source of
// error-body truth, so even a 400 is byte-identical to a direct
// answer.
//
// With a cache, a canonical untraced request is first looked up there
// and, on a miss, its forwarded 200 or 400 answer is offered to it:
// those are deterministic verdicts on the request, the same from every
// node. A raw-keyed body is never looked up or stored, and neither is
// a traced one: its stitched tree needs a live backend subtree, and
// traced and untraced twins share one key.
func (f *Front) keyed(path string, hedge bool, cache *answers, record *owners) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, api.MaxBodyBytes+1))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
			return
		}
		if len(body) > api.MaxBodyBytes {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", api.MaxBodyBytes))
			return
		}
		key, traced, kerr := api.RequestKeyForPath(path, body)
		if kerr != nil {
			key = "raw|" + strconv.FormatUint(hashKey(string(body)), 16)
		}
		// The cache key is the path plus the full canonical key, never
		// its hash: a hash collision must not serve another request's
		// answer. It stays empty when the request may not reuse.
		var ckey string
		if cache != nil && kerr == nil && !traced {
			ckey = path + " " + key
			if a := cache.get(ckey); a != nil {
				writeAnswer(w, a, key)
				return
			}
		}
		if traced {
			// Mark the hop traced: the backend echoes its span trace in
			// the X-Pc-Trace-Spans response header (error bodies included)
			// so the front can stitch it under its own spans.
			r.Header.Set(api.HeaderTrace, f.c.cfg.Name)
		}
		tr := telemetry.FromContext(r.Context())
		resp, info, err := f.c.Forward(r.Context(), path, r.Header, body, key, hedge)
		if err != nil {
			if traced {
				f.sealTrace(w, tr, nil)
			}
			writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: forwarding %s: %w", path, err))
			return
		}
		if traced {
			stitched := f.sealTrace(w, tr, resp)
			if resp.status == http.StatusOK {
				resp = &backendResponse{status: resp.status, header: resp.header,
					body: withStitchedTrace(resp.body, stitched)}
			}
		}
		if ckey != "" && (resp.status == http.StatusOK || resp.status == http.StatusBadRequest) {
			cache.put(ckey, resp.status, resp.header.Get("Content-Type"), info.Backend, resp.body)
		}
		if record != nil && resp.status == http.StatusCreated {
			var created struct {
				ID string `json:"id"`
			}
			if json.Unmarshal(resp.body, &created) == nil && created.ID != "" {
				record.put(created.ID, f.c.byName[info.Backend])
			}
		}
		writeProxied(w, resp, info, key, kerr == nil)
	}
}

// sealTrace assembles the stitched trace tree — the front's own spans
// with the backend's echoed trace nested verbatim underneath — and
// sets it as the response's X-Pc-Trace-Spans header. The header rides
// every traced response, error paths included: an error body is the
// backend's verbatim answer and cannot be rewritten, so the header is
// the only channel that carries the hop's trace out.
func (f *Front) sealTrace(w http.ResponseWriter, tr *telemetry.Trace, resp *backendResponse) *api.TraceInfo {
	stitched := api.TraceInfoFrom(tr)
	if stitched == nil {
		stitched = &api.TraceInfo{}
	}
	stitched.Origin = f.c.cfg.Name
	if resp != nil {
		// Prefer the in-body trace block (it includes the encode span);
		// error bodies have none, so fall back to the header echo.
		if raw := traceBlock(resp.body); raw != nil {
			stitched.Backend = raw
		} else if h := resp.header.Get(api.HeaderTraceSpans); h != "" {
			stitched.Backend = json.RawMessage(h)
		}
	}
	if b, err := json.Marshal(stitched); err == nil {
		w.Header().Set(api.HeaderTraceSpans, string(b))
	}
	return stitched
}

// traceBlock extracts the raw bytes of a JSON object's top-level
// "trace" value, nil when absent or the body is not an object.
func traceBlock(body []byte) json.RawMessage {
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return nil
	}
	return m["trace"]
}

// withStitchedTrace replaces a 200 body's trace block with the
// stitched tree. Every other field survives as raw bytes; the backend
// subtree inside the new block is the backend's trace verbatim. Any
// failure returns the body unchanged — a proxy degrades to
// passthrough, never corrupts.
func withStitchedTrace(body []byte, stitched *api.TraceInfo) []byte {
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return body
	}
	if _, ok := m["trace"]; !ok {
		return body
	}
	raw, err := json.Marshal(stitched)
	if err != nil {
		return body
	}
	m["trace"] = raw
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	// Backend bodies end in a newline (json.Encoder); keep the shape.
	return append(out, '\n')
}

// owned routes a stateful sub-resource to its owning node: the owner
// map when the id was created through this proxy, a fleet-wide lookup
// otherwise (a restarted pcfront must still find sessions its
// predecessor placed).
func (f *Front) owned(kind string, o *owners, stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		n := o.get(id)
		if n == nil {
			n = f.locate(r.Context(), kind, id, o)
		}
		if n == nil {
			writeError(w, http.StatusNotFound, fmt.Errorf("cluster: no node owns %s/%s", kind, id))
			return
		}
		if stream {
			f.proxyStream(w, r, n, "/"+kind+"/"+id+"/stream")
			return
		}
		f.proxyOwned(w, r, n, o, "/"+kind+"/"+id, id)
	}
}

// locate probes every node for an id the owner map does not know,
// caching a hit. Draining nodes are included — their pinned resources
// live until they end — and unhealthy ones too: a probe can be stale,
// and a 404 from a live owner would be worse than a wasted try.
func (f *Front) locate(ctx context.Context, kind, id string, o *owners) *Node {
	for _, n := range f.c.nodes {
		ctx, cancel := context.WithTimeout(ctx, f.c.cfg.ProbeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Base+"/"+kind+"/"+id, nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := f.c.cfg.Client.Do(req)
		cancel()
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			o.put(id, n)
			return n
		}
	}
	return nil
}

// proxyOwned forwards a snapshot or delete to the owning node. No
// retry, no hedge: the resource exists exactly there.
func (f *Front) proxyOwned(w http.ResponseWriter, r *http.Request, n *Node, o *owners, path, id string) {
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	n.requests.Add(1)
	req, err := http.NewRequestWithContext(r.Context(), r.Method, n.Base+path, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set(api.HeaderForwarded, f.c.cfg.Name)
	resp, err := f.c.cfg.Client.Do(req)
	if err != nil {
		n.errors.Add(1)
		f.c.noteTransportFailure(n)
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: node %s: %w", n.Name, err))
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		n.errors.Add(1)
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: node %s: %w", n.Name, err))
		return
	}
	if r.Method == http.MethodDelete && resp.StatusCode == http.StatusNoContent {
		o.drop(id)
	}
	writeProxied(w, &backendResponse{status: resp.StatusCode, header: resp.Header, body: body},
		RouteInfo{Backend: n.Name, Attempts: 1}, "", false)
}

// proxyStream forwards an NDJSON stream from the owning node,
// flushing each chunk as it arrives so follow-mode clients see events
// live. The stream client has no timeout — streams live as long as
// their producer — and the hop counts toward the node's in-flight
// total, so drain waits for pinned streams.
func (f *Front) proxyStream(w http.ResponseWriter, r *http.Request, n *Node, path string) {
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	n.requests.Add(1)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, n.Base+path, nil)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set(api.HeaderForwarded, f.c.cfg.Name)
	resp, err := f.c.streamClient.Do(req)
	if err != nil {
		n.errors.Add(1)
		f.c.noteTransportFailure(n)
		writeError(w, http.StatusBadGateway, fmt.Errorf("cluster: node %s: %w", n.Name, err))
		return
	}
	defer resp.Body.Close()
	// The stream-passthrough span covers the whole proxied stream, first
	// byte to producer close; recorded retroactively on return since a
	// stream has no post-body trailer to carry it sooner.
	tr := telemetry.FromContext(r.Context())
	sstart := tr.Clock()
	defer func() {
		tr.AddSince(telemetry.SpanStreamPassthrough, sstart,
			telemetry.Annotation{Key: "backend", Value: n.Name},
			telemetry.Annotation{Key: "status", Value: strconv.Itoa(resp.StatusCode)})
	}()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set(api.HeaderBackend, n.Name)
	w.WriteHeader(resp.StatusCode)
	flusher, canFlush := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				return
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// healthz reports the cluster view: 200 while any node can serve, 503
// when none can.
func (f *Front) healthz(w http.ResponseWriter, r *http.Request) {
	h := f.c.Health()
	h.Sessions = f.sessions.len()
	h.Campaigns = f.campaigns.len()
	status := http.StatusOK
	if h.Status == "unavailable" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// drain handles the admin drain/undrain endpoints. Draining marks the
// node out of the ring and, when the request carries ?wait=DURATION,
// blocks until its in-flight work (streams included) finishes or the
// wait expires; the response reports the node's state and remaining
// in-flight count either way.
func (f *Front) drain(on bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("node")
		var (
			n   *Node
			err error
		)
		if on {
			n, err = f.c.Drain(name)
		} else {
			n, err = f.c.Undrain(name)
		}
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		if on {
			if waitSpec := r.URL.Query().Get("wait"); waitSpec != "" {
				d, perr := time.ParseDuration(waitSpec)
				if perr != nil {
					writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: bad wait %q: %v", waitSpec, perr))
					return
				}
				ctx, cancel := context.WithTimeout(r.Context(), d)
				f.c.DrainWait(ctx, n)
				cancel()
			}
		}
		writeJSON(w, http.StatusOK, f.c.NodeInfo(name))
	}
}

// serveMetrics renders the proxy's Prometheus exposition: the
// registry families (HTTP, stage, and backend-attempt latency) plus
// the snapshot-derived per-backend counters, fleet gauges, and the Go
// runtime families.
func (f *Front) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.writeOwnMetrics(w)
}

// writeOwnMetrics writes the front's own families — the shared body of
// /metrics and the head of the federated /cluster/metrics document.
func (f *Front) writeOwnMetrics(w io.Writer) {
	f.reg.WritePrometheus(w)
	e := telemetry.NewExpo(w)
	label := func(k, v string) telemetry.Annotation { return telemetry.Annotation{Key: k, Value: v} }
	h := f.c.Health()

	e.Family("pcfront_backend_requests_total", "Attempts sent, by backend.", "counter")
	for _, n := range h.Nodes {
		e.Sample(float64(n.Requests), label("backend", n.Name))
	}
	e.Family("pcfront_backend_errors_total", "Attempts that failed (transport error or 5xx), by backend.", "counter")
	for _, n := range h.Nodes {
		e.Sample(float64(n.Errors), label("backend", n.Name))
	}
	e.Family("pcfront_backend_hedges_total", "Hedge attempts launched, by backend.", "counter")
	for _, n := range h.Nodes {
		e.Sample(float64(n.Hedges), label("backend", n.Name))
	}
	e.Family("pcfront_backend_retries_total", "Retry attempts sent, by backend.", "counter")
	for _, n := range h.Nodes {
		e.Sample(float64(n.Retries), label("backend", n.Name))
	}
	e.Family("pcfront_backend_inflight", "Proxied requests currently outstanding, by backend.", "gauge")
	for _, n := range h.Nodes {
		e.Sample(float64(n.Inflight), label("backend", n.Name))
	}
	e.Family("pcfront_backend_state", "Backend state (1 for the current state, by backend and state).", "gauge")
	for _, n := range h.Nodes {
		for _, s := range []string{api.NodeHealthy, api.NodeUnhealthy, api.NodeDraining} {
			v := 0.0
			if n.State == s {
				v = 1
			}
			e.Sample(v, label("backend", n.Name), label("state", s))
		}
	}
	e.Family("pcfront_hedged_requests_total", "Requests that launched a hedge.", "counter")
	e.Sample(float64(h.Hedged))
	e.Family("pcfront_hedge_wins_total", "Hedged requests the hedge won.", "counter")
	e.Sample(float64(h.HedgeWins))
	e.Family("pcfront_retried_requests_total", "Requests that retried at least once.", "counter")
	e.Sample(float64(h.Retried))
	e.Family("pcfront_stream_owners", "Pinned stream routes tracked, by kind.", "gauge")
	e.Sample(float64(f.sessions.len()), label("kind", "sessions"))
	e.Sample(float64(f.campaigns.len()), label("kind", "campaigns"))
	a := f.answers.stats()
	e.Family("pcfront_answer_cache_hits_total", "Keyed requests answered from the answer cache, with no backend attempt.", "counter")
	e.Sample(float64(a.hits))
	e.Family("pcfront_answer_cache_misses_total", "Cacheable requests (canonical, untraced /measure, /analyze, /plan, /infer) that missed the answer cache.", "counter")
	e.Sample(float64(a.misses))
	e.Family("pcfront_answer_cache_evictions_total", "Answers evicted to keep the answer cache within its byte bound.", "counter")
	e.Sample(float64(a.evictions))
	e.Family("pcfront_answer_cache_bytes", "Bytes the answer cache is charged: keys, content types, bodies and a fixed per-entry overhead.", "gauge")
	e.Sample(float64(a.bytes))
	e.Family("pcfront_answer_cache_entries", "Answers the answer cache holds.", "gauge")
	e.Sample(float64(a.entries))
	f.runtime.Write(e)
}

// clusterMetrics federates the fleet's expositions into one document:
// the front's own families first, then every routable backend's
// /metrics scraped, parsed, and merged — counters and histograms
// summed fleet-wide, gauges kept per node under a backend label — and
// a per-backend scrape-success gauge so a partial document is visible
// as such rather than silently short.
func (f *Front) clusterMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	f.writeOwnMetrics(w)

	m := telemetry.NewMerger()
	scraped := make([]float64, len(f.c.nodes))
	for i, n := range f.c.nodes {
		if f.c.NodeInfo(n.Name).State == api.NodeUnhealthy {
			continue
		}
		fams, err := f.scrapeMetrics(r.Context(), n)
		if err != nil {
			continue
		}
		m.Add(n.Name, fams)
		scraped[i] = 1
	}
	e := telemetry.NewExpo(w)
	e.Family("pcfront_cluster_scrape_ok", "Whether this document includes the backend's scraped families (0: unhealthy or scrape failed).", "gauge")
	for i, n := range f.c.nodes {
		e.Sample(scraped[i], telemetry.Annotation{Key: "backend", Value: n.Name})
	}
	m.Write(telemetry.NewExpo(w))
}

// scrapeMetrics fetches and parses one backend's /metrics under the
// probe timeout.
func (f *Front) scrapeMetrics(ctx context.Context, n *Node) ([]telemetry.ParsedFamily, error) {
	ctx, cancel := context.WithTimeout(ctx, f.c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(api.HeaderForwarded, f.c.cfg.Name)
	resp, err := f.c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: %s /metrics: status %d", n.Name, resp.StatusCode)
	}
	return telemetry.ParseExposition(resp.Body)
}

// clusterHealthz renders the whole fleet as one JSON document: the
// front's own summary (ring, drain, budget state) plus every node's
// own /healthz report, or the scrape error for nodes that did not
// answer. 503 mirrors /healthz: only when no node can serve.
func (f *Front) clusterHealthz(w http.ResponseWriter, r *http.Request) {
	front := f.c.Health()
	front.Sessions = f.sessions.len()
	front.Campaigns = f.campaigns.len()
	health := make(map[string]*api.HealthResponse, len(f.c.nodes))
	errs := make(map[string]string)
	for _, n := range f.c.nodes {
		h, err := f.scrapeHealth(r.Context(), n)
		if err != nil {
			errs[n.Name] = err.Error()
			continue
		}
		health[n.Name] = h
	}
	status := http.StatusOK
	if front.Status == "unavailable" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, api.ClusterStatusFrom(front, health, errs))
}

// scrapeHealth fetches and decodes one backend's /healthz under the
// probe timeout. Non-200 still decodes: a degraded node's report is
// exactly what the fleet view wants to show.
func (f *Front) scrapeHealth(ctx context.Context, n *Node) (*api.HealthResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, f.c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(api.HeaderForwarded, f.c.cfg.Name)
	resp, err := f.c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("cluster: %s /healthz: %w", n.Name, err)
	}
	return &h, nil
}

// writeProxied copies a backend response to the client, attaching the
// routing metadata headers. The body is written verbatim: byte
// identity with a direct answer is the cluster's contract.
func writeProxied(w http.ResponseWriter, resp *backendResponse, info RouteInfo, key string, keyed bool) {
	if ct := resp.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set(api.HeaderBackend, info.Backend)
	w.Header().Set(api.HeaderAttempts, strconv.Itoa(info.Attempts))
	if info.Hedged {
		w.Header().Set(api.HeaderHedged, "true")
	}
	if keyed {
		w.Header().Set(api.HeaderRequestKey, strconv.FormatUint(hashKey(key), 16))
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// writeAnswer sends a stored answer: its body verbatim under its stored
// content type, zero attempts, the cache-hit header, and the node that
// produced it as the backend.
func writeAnswer(w http.ResponseWriter, a *answer, key string) {
	if a.contentType != "" {
		w.Header().Set("Content-Type", a.contentType)
	}
	w.Header().Set(api.HeaderBackend, a.backend)
	w.Header().Set(api.HeaderAttempts, "0")
	w.Header().Set(api.HeaderCache, "hit")
	w.Header().Set(api.HeaderRequestKey, strconv.FormatUint(hashKey(key), 16))
	w.WriteHeader(a.status)
	w.Write(a.body)
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the shared JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, api.Error{Error: err.Error()})
}

// statusWriter records the response status for the error counter,
// preserving the streaming surface (Flush, Unwrap) of the underlying
// writer.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// owners is the bounded id -> node pin table behind the stateful
// routes. Eviction is FIFO: old pins fall out once the table is full,
// and a dropped pin only costs the next request a locate sweep.
type owners struct {
	mu    sync.Mutex
	m     map[string]*Node
	order []string
	cap   int
}

func newOwners(cap int) *owners {
	return &owners{m: make(map[string]*Node), cap: cap}
}

func (o *owners) put(id string, n *Node) {
	if n == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.m[id]; !ok {
		o.order = append(o.order, id)
		if len(o.order) > o.cap {
			delete(o.m, o.order[0])
			o.order = o.order[1:]
		}
	}
	o.m[id] = n
}

func (o *owners) get(id string) *Node {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[id]
}

func (o *owners) drop(id string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.m, id)
	// The order slice keeps the id until it cycles out; a stale entry
	// only re-deletes a missing key.
}

func (o *owners) len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.m)
}
