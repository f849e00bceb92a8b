package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// newCapturingBackend is a real pcserved node whose responses are also
// recorded verbatim, so tests can compare what the backend emitted with
// what the front stitched — byte for byte.
func newCapturingBackend(t *testing.T, mu *sync.Mutex, bodies *[][]byte) *httptest.Server {
	t.Helper()
	node := server.New(server.Config{
		Workers:         2,
		CalibrationRuns: 5,
		Monitor:         monitor.Config{SweepInterval: -1},
		Campaign:        campaign.Config{SweepInterval: -1},
	})
	t.Cleanup(node.Close)
	h := node.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		mu.Lock()
		*bodies = append(*bodies, append([]byte(nil), rec.Body.Bytes()...))
		mu.Unlock()
		for k, vs := range rec.Header() {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)
	return srv
}

func decodeTrace(t *testing.T, raw []byte) *api.TraceInfo {
	t.Helper()
	var info api.TraceInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatalf("decoding trace %s: %v", raw, err)
	}
	return &info
}

func spanCount(info *api.TraceInfo, name string) int {
	n := 0
	for _, s := range info.Spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// TestFrontTraceStitching is the tentpole's contract: a traced request
// through the proxy yields one coherent tree — the front's route and
// forward spans on top, the backend's trace nested underneath
// byte-identical to what the backend emitted, in both the body's trace
// block and the X-Pc-Trace-Spans response header.
func TestFrontTraceStitching(t *testing.T) {
	var mu sync.Mutex
	var captured [][]byte
	backend := newCapturingBackend(t, &mu, &captured)
	f, err := NewFront(Config{Backends: []string{backend.URL}, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	front := httptest.NewServer(f.Handler())
	t.Cleanup(front.Close)

	req := measureReq(3)
	req.Trace = true
	resp, body := postJSON(t, front.URL+"/measure", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}

	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	rawTrace, ok := m["trace"]
	if !ok {
		t.Fatalf("traced response has no trace block: %s", body)
	}
	stitched := decodeTrace(t, rawTrace)
	if stitched.Origin != "pcfront" {
		t.Fatalf("origin %q, want pcfront", stitched.Origin)
	}
	if spanCount(stitched, telemetry.SpanRoute) != 1 || spanCount(stitched, telemetry.SpanForward) != 1 {
		t.Fatalf("front spans missing: %+v", stitched.Spans)
	}
	if len(stitched.Backend) == 0 {
		t.Fatal("no backend subtree stitched")
	}

	// The header carries the same stitched tree as the body's block.
	if h := resp.Header.Get(api.HeaderTraceSpans); h != string(rawTrace) {
		t.Fatalf("header/body trace disagree:\nheader: %s\nbody:   %s", h, rawTrace)
	}

	// Byte identity: the stitched subtree is exactly the trace block of
	// the body the backend actually sent over the wire.
	mu.Lock()
	var backendTrace json.RawMessage
	for _, b := range captured {
		var bm map[string]json.RawMessage
		if json.Unmarshal(b, &bm) == nil && bm["trace"] != nil {
			backendTrace = bm["trace"]
		}
	}
	mu.Unlock()
	if backendTrace == nil {
		t.Fatal("backend emitted no traced response")
	}
	if !bytes.Equal(stitched.Backend, backendTrace) {
		t.Fatalf("backend subtree not byte-identical:\nstitched: %s\nbackend:  %s", stitched.Backend, backendTrace)
	}

	// Cross-request: the subtree's shape equals a direct traced answer's
	// trace shape (durations differ, the stage tree must not).
	dresp, dbody := postJSON(t, backend.URL+"/measure", req)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("direct status %d", dresp.StatusCode)
	}
	var dm map[string]json.RawMessage
	if err := json.Unmarshal(dbody, &dm); err != nil {
		t.Fatal(err)
	}
	sub := decodeTrace(t, stitched.Backend)
	direct := decodeTrace(t, dm["trace"])
	if sub.Shape() != direct.Shape() {
		t.Fatalf("subtree shape %q, direct trace shape %q", sub.Shape(), direct.Shape())
	}

	// Untraced requests stay untouched: no header, no trace block.
	resp, body = postJSON(t, front.URL+"/measure", measureReq(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced status %d", resp.StatusCode)
	}
	if resp.Header.Get(api.HeaderTraceSpans) != "" {
		t.Error("untraced response grew a trace header")
	}
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Errorf("untraced body grew a trace block: %s", body)
	}
}

// TestFrontTraceErrorBodyKeepsHeader is the regression for the error
// path: a traced request that the backend rejects keeps its error body
// byte-identical to a direct answer (never rewritten), and the stitched
// trace rides the X-Pc-Trace-Spans header instead.
func TestFrontTraceErrorBodyKeepsHeader(t *testing.T) {
	_, front, backends := newFleet(t, 1, nil)
	req := api.MeasureRequest{Processor: "NOPE", Trace: true}
	resp, body := postJSON(t, front.URL+"/measure", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	dresp, dbody := postJSON(t, backends[0].URL+"/measure", req)
	if dresp.StatusCode != http.StatusBadRequest || !bytes.Equal(body, dbody) {
		t.Fatalf("error body diverges from direct:\nfront:  %s\ndirect: %s", body, dbody)
	}
	h := resp.Header.Get(api.HeaderTraceSpans)
	if h == "" {
		t.Fatal("traced error response lost the trace header")
	}
	stitched := decodeTrace(t, []byte(h))
	if stitched.Origin != "pcfront" {
		t.Fatalf("origin %q", stitched.Origin)
	}
	if spanCount(stitched, telemetry.SpanRoute) != 1 || spanCount(stitched, telemetry.SpanForward) != 1 {
		t.Fatalf("front spans missing on error path: %+v", stitched.Spans)
	}
	if len(stitched.Backend) == 0 {
		t.Fatal("error path lost the backend subtree (header echo)")
	}
	sub := decodeTrace(t, stitched.Backend)
	if spanCount(sub, telemetry.SpanParse) != 1 {
		t.Fatalf("backend subtree missing parse span: %+v", sub.Spans)
	}
}

// TestFrontHedgeLoserSpanIsolation is the regression for hedged races:
// the losing attempt — cancelled or still running when the winner
// returns — must contribute no forward span to the stitched tree. One
// route, one forward (the winner's), one hedge span; nothing else.
func TestFrontHedgeLoserSpanIsolation(t *testing.T) {
	fast := newBackend(t)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		time.Sleep(2 * time.Second)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(slow.Close)
	f, err := NewFront(Config{
		Backends:      []string{slow.URL, fast.URL},
		ProbeInterval: -1,
		HedgeAfter:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	front := httptest.NewServer(f.Handler())
	t.Cleanup(front.Close)

	// Find a traced request the slow node owns (the trace flag is part
	// of the body, so the key is computed from the traced form).
	slowName := f.Cluster().nodes[0].Name
	var req api.MeasureRequest
	found := false
	for runs := 1; runs <= 100 && !found; runs++ {
		req = measureReq(runs)
		req.Trace = true
		body, _ := json.Marshal(req)
		key, _, err := api.RequestKeyForPath("/measure", body)
		if err != nil {
			t.Fatal(err)
		}
		found = f.Cluster().Owner(key).Name == slowName
	}
	if !found {
		t.Fatal("no probe request hashed to the slow node")
	}

	resp, body := postJSON(t, front.URL+"/measure", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(api.HeaderHedged) != "true" {
		t.Fatal("winning response not marked hedged")
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	stitched := decodeTrace(t, m["trace"])
	if got := spanCount(stitched, telemetry.SpanForward); got != 1 {
		t.Fatalf("forward spans = %d, want exactly the winner's: %+v", got, stitched.Spans)
	}
	for _, s := range stitched.Spans {
		if s.Name == telemetry.SpanForward && s.Annotations["backend"] == slowName {
			t.Fatalf("losing attempt leaked its span: %+v", s)
		}
		if s.Name == telemetry.SpanHedge && s.Annotations["winner"] != "hedge" {
			t.Fatalf("hedge span winner = %q", s.Annotations["winner"])
		}
	}
	if spanCount(stitched, telemetry.SpanHedge) != 1 {
		t.Fatalf("hedge span missing: %+v", stitched.Spans)
	}
}

// TestClusterMetricsFederation: /cluster/metrics is one well-formed
// exposition — the front's own families, then the fleet's merged: every
// counter summed across backends, every gauge kept per node under a
// backend label, and a scrape-success gauge naming what the document
// covers.
func TestClusterMetricsFederation(t *testing.T) {
	_, front, backends := newFleet(t, 3, nil)
	for i := 0; i < 3; i++ {
		if resp, data := postJSON(t, front.URL+"/measure", measureReq(i+1)); resp.StatusCode != http.StatusOK {
			t.Fatalf("measure %d: %d %s", i, resp.StatusCode, data)
		}
	}

	scrape := func() ([]telemetry.ParsedFamily, []byte) {
		t.Helper()
		resp, err := http.Get(front.URL + "/cluster/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		text, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fams, err := telemetry.ParseExposition(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("federated document does not parse: %v", err)
		}
		return fams, text
	}
	find := func(fams []telemetry.ParsedFamily, name string) *telemetry.ParsedFamily {
		for i := range fams {
			if fams[i].Name == name {
				return &fams[i]
			}
		}
		return nil
	}

	fams, text := scrape()
	// One declaration per family: re-emitting a name would fail
	// Prometheus ingestion.
	if got := bytes.Count(text, []byte("# TYPE pcserved_http_requests_total ")); got != 1 {
		t.Fatalf("pcserved_http_requests_total declared %d times", got)
	}

	// Counters sum fleet-wide: the 3 measures each cost exactly one
	// backend request, wherever they landed.
	reqs := find(fams, "pcserved_http_requests_total")
	if reqs == nil {
		t.Fatal("merged document missing pcserved_http_requests_total")
	}
	total := 0.0
	for _, s := range reqs.Samples {
		for _, l := range s.Labels {
			if l.Key == "endpoint" && l.Value == "/measure" {
				total += s.Value
			}
			if l.Key == "backend" {
				t.Fatalf("summed counter kept a backend label: %+v", s)
			}
		}
	}
	if total != 3 {
		t.Fatalf("fleet /measure requests = %v, want 3", total)
	}

	// Gauges stay per-node, one sample per backend.
	entries := find(fams, "pcserved_calibration_cache_entries")
	if entries == nil {
		t.Fatal("merged document missing pcserved_calibration_cache_entries")
	}
	nodes := make(map[string]bool)
	for _, s := range entries.Samples {
		for _, l := range s.Labels {
			if l.Key == "backend" {
				nodes[l.Value] = true
			}
		}
	}
	if len(nodes) != 3 {
		t.Fatalf("gauge backend labels = %v, want all 3 nodes", nodes)
	}

	ok := find(fams, "pcfront_cluster_scrape_ok")
	if ok == nil || len(ok.Samples) != 3 {
		t.Fatalf("scrape_ok family = %+v", ok)
	}
	for _, s := range ok.Samples {
		if s.Value != 1 {
			t.Fatalf("healthy fleet scrape_ok = %+v", s)
		}
	}
	for _, own := range []string{"pcfront_http_requests_total", "pcfront_stage_duration_seconds", "pcfront_go_goroutines"} {
		if find(fams, own) == nil {
			t.Errorf("federated document missing own family %s", own)
		}
	}

	// A dead backend degrades to scrape_ok 0; the document stays
	// well-formed and keeps the survivors' families.
	backends[0].Close()
	fams, _ = scrape()
	ok = find(fams, "pcfront_cluster_scrape_ok")
	zeros := 0
	for _, s := range ok.Samples {
		if s.Value == 0 {
			zeros++
		}
	}
	if zeros != 1 {
		t.Fatalf("after kill: scrape_ok zeros = %d, want 1 (%+v)", zeros, ok.Samples)
	}
	if find(fams, "pcserved_http_requests_total") == nil {
		t.Fatal("survivors' families missing after one backend died")
	}
}

// TestFrontClusterHealthz: the fleet status document joins the front's
// routing view with every node's own health report, and names the
// scrape failure for nodes that did not answer.
func TestFrontClusterHealthz(t *testing.T) {
	_, front, backends := newFleet(t, 3, nil)
	get := func() api.ClusterStatusResponse {
		t.Helper()
		resp, err := http.Get(front.URL + "/cluster/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var doc api.ClusterStatusResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	doc := get()
	if doc.Front.Status != "ok" || len(doc.Backends) != 3 {
		t.Fatalf("fleet doc = %+v", doc.Front)
	}
	for _, b := range doc.Backends {
		if !b.Reachable || b.Health == nil || b.Health.Status != "ok" {
			t.Fatalf("backend row = %+v", b)
		}
		if b.Node.Name == "" || b.Node.State != api.NodeHealthy {
			t.Fatalf("node view = %+v", b.Node)
		}
	}

	backends[2].Close()
	doc = get()
	dead := 0
	for _, b := range doc.Backends {
		if !b.Reachable {
			dead++
			if b.Error == "" {
				t.Fatalf("unreachable row has no error: %+v", b)
			}
			if !strings.Contains(b.Error, "connect") && !strings.Contains(b.Error, "refused") && b.Error != "unreachable" {
				t.Logf("scrape error: %s", b.Error)
			}
		}
	}
	if dead != 1 {
		t.Fatalf("unreachable rows = %d, want 1", dead)
	}
}
