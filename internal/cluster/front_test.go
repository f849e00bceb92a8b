package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/server"
)

// newBackend spins one real pcserved node (the production handler from
// internal/server) over httptest.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	node := server.New(server.Config{
		Workers:         2,
		CalibrationRuns: 5,
		Monitor:         monitor.Config{SweepInterval: -1},
		Campaign:        campaign.Config{SweepInterval: -1},
	})
	t.Cleanup(node.Close)
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// newFleet builds n real backends and a front over them. Probing and
// hedging are off unless mod turns them on, so routing is
// deterministic.
func newFleet(t *testing.T, n int, mod func(*Config)) (*Front, *httptest.Server, []*httptest.Server) {
	t.Helper()
	backends := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = newBackend(t)
		urls[i] = backends[i].URL
	}
	cfg := Config{Backends: urls, ProbeInterval: -1, HedgeAfter: -1}
	if mod != nil {
		mod(&cfg)
	}
	f, err := NewFront(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	front := httptest.NewServer(f.Handler())
	t.Cleanup(front.Close)
	return f, front, backends
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func measureReq(runs int) api.MeasureRequest {
	return api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: runs}
}

// TestFrontByteIdentity is the cluster's contract: for every keyed
// endpoint, the body through the proxy is byte-identical to a direct
// single-node answer — success and error responses alike.
func TestFrontByteIdentity(t *testing.T) {
	_, front, backends := newFleet(t, 3, nil)
	duet := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "null", Pattern: "rr"}
	cases := []struct {
		path string
		body any
	}{
		{"/measure", measureReq(3)},
		{"/analyze", api.AnalyzeRequest{Items: []api.AnalyzeItem{
			{Measure: measureReq(4)},
			{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:2000", Pattern: "rr", Runs: 4}, Duet: &duet},
		}}},
		{"/plan", api.PlanRequest{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"},
			TargetRelWidth: 0.2, Counters: 2}},
		{"/infer", api.InferRequest{Items: []api.InferItem{{Processor: "K8", Inputs: []api.InferInput{
			{Event: "INSTR_RETIRED", Mean: 1000, Variance: 100},
			{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400},
		}}}}},
		{"/measure", api.MeasureRequest{Processor: "NOPE"}}, // 400: error bodies too
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/")+"-"+fmt.Sprint(tc.body)[:20], func(t *testing.T) {
			viaFront, fb := postJSON(t, front.URL+tc.path, tc.body)
			for _, direct := range backends {
				dresp, db := postJSON(t, direct.URL+tc.path, tc.body)
				if dresp.StatusCode != viaFront.StatusCode {
					t.Fatalf("status via front = %d, direct = %d", viaFront.StatusCode, dresp.StatusCode)
				}
				if !bytes.Equal(fb, db) {
					t.Fatalf("body diverges\nfront:  %s\ndirect: %s", fb, db)
				}
			}
			if viaFront.Header.Get(api.HeaderBackend) == "" {
				t.Error("missing backend header")
			}
			if viaFront.Header.Get(api.HeaderAttempts) != "1" {
				t.Errorf("attempts = %q, want 1", viaFront.Header.Get(api.HeaderAttempts))
			}
		})
	}
}

// TestFrontAffinity: identical requests land on the ring owner every
// time, so the owning node's coalescing and calibration cache see every
// twin. The first two are forwarded there; from the third on the front
// answers from its cache, naming the owner that produced the answer.
func TestFrontAffinity(t *testing.T) {
	f, front, _ := newFleet(t, 3, nil)
	body, _ := json.Marshal(measureReq(3))
	key, _, err := api.RequestKeyForPath("/measure", body)
	if err != nil {
		t.Fatal(err)
	}
	want := f.Cluster().Owner(key).Name
	for i := 0; i < 5; i++ {
		resp, data := postJSON(t, front.URL+"/measure", measureReq(3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get(api.HeaderBackend); got != want {
			t.Fatalf("request %d landed on %s, ring owner is %s", i, got, want)
		}
		if resp.Header.Get(api.HeaderRequestKey) == "" {
			t.Error("missing request-key header")
		}
		cache, attempts := resp.Header.Get(api.HeaderCache), resp.Header.Get(api.HeaderAttempts)
		if i < 2 && (cache != "" || attempts != "1") {
			t.Fatalf("request %d: cache %q, attempts %s; want forwarded once", i+1, cache, attempts)
		}
		if i >= 2 && (cache != "hit" || attempts != "0") {
			t.Fatalf("request %d: cache %q, attempts %s; want a hit", i+1, cache, attempts)
		}
	}
}

// TestFrontNodeKill: killing one backend mid-run loses zero requests —
// transport failovers are free and eject the dead node from the ring,
// and every answer stays byte-identical to the pre-kill answer. The
// pre-kill answers come straight from a surviving backend, so the
// front first sees each body after the kill and cannot answer it from
// its cache.
func TestFrontNodeKill(t *testing.T) {
	f, front, backends := newFleet(t, 3, func(c *Config) { c.FailAfter = 1 })
	// The ring places keys by the backends' OS-picked ports, so keep
	// adding requests until the node about to be killed owns one;
	// otherwise nothing is forwarded to it and no failover happens.
	name := f.Cluster().nodes[1].Name
	var reqs []api.MeasureRequest
	owned := false
	for runs := 1; runs <= 12 || !owned; runs++ {
		if runs > 200 {
			t.Fatal("no request of 200 hashed to the node to be killed")
		}
		req := measureReq(runs)
		body, _ := json.Marshal(req)
		key, _, err := api.RequestKeyForPath("/measure", body)
		if err != nil {
			t.Fatal(err)
		}
		owned = owned || f.Cluster().Owner(key).Name == name
		reqs = append(reqs, req)
	}
	before := make([][]byte, len(reqs))
	for i, req := range reqs {
		resp, data := postJSON(t, backends[0].URL+"/measure", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-kill request %d: status %d: %s", i, resp.StatusCode, data)
		}
		before[i] = data
	}
	backends[1].Close()
	failovers := 0
	for i, req := range reqs {
		resp, data := postJSON(t, front.URL+"/measure", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill request %d: status %d: %s", i, resp.StatusCode, data)
		}
		if !bytes.Equal(data, before[i]) {
			t.Fatalf("post-kill request %d diverges:\n%s\nvs\n%s", i, data, before[i])
		}
		if resp.Header.Get(api.HeaderCache) != "" {
			t.Fatalf("post-kill request %d: first sighting answered from the cache", i)
		}
		if attempts, _ := strconv.Atoi(resp.Header.Get(api.HeaderAttempts)); attempts > 1 {
			failovers++
		}
	}
	if failovers == 0 {
		t.Fatal("a request owned by the killed node did not fail over")
	}
	if got := f.Cluster().NodeInfo(name).State; got != api.NodeUnhealthy {
		t.Errorf("killed node state = %s, want unhealthy after forwarded failures", got)
	}
}

// TestFrontHedging: a silent primary gets a budgeted hedge to the next
// replica, and the hedge's answer is byte-identical (determinism makes
// any node a correct fallback).
func TestFrontHedging(t *testing.T) {
	fast := newBackend(t)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		time.Sleep(2 * time.Second) // far beyond the hedge trigger
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

	// Find a request the slow node owns, so the hedge path engages.
	slowName := f.Cluster().nodes[0].Name
	var req api.MeasureRequest
	found := false
	for runs := 1; runs <= 100 && !found; runs++ {
		req = measureReq(runs)
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

	resp, data := postJSON(t, front.URL+"/measure", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get(api.HeaderHedged) != "true" {
		t.Fatalf("winning response not marked hedged (attempts=%s, backend=%s)",
			resp.Header.Get(api.HeaderAttempts), resp.Header.Get(api.HeaderBackend))
	}
	dresp, ddata := postJSON(t, fast.URL+"/measure", req)
	if dresp.StatusCode != http.StatusOK || !bytes.Equal(data, ddata) {
		t.Fatalf("hedged body diverges from direct:\n%s\nvs\n%s", data, ddata)
	}
	h := f.Cluster().Health()
	if h.Hedged == 0 || h.HedgeWins == 0 {
		t.Errorf("hedge counters not engaged: hedged=%d wins=%d", h.Hedged, h.HedgeWins)
	}
}

// TestFrontRetryOn5xx: a 5xx answer retries onto the next ring node
// while the budget lasts; with the budget exhausted the backend's own
// 5xx body passes through verbatim.
func TestFrontRetryOn5xx(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"induced backend failure"}`)
	}))
	t.Cleanup(bad.Close)
	good := newBackend(t)
	f, err := NewFront(Config{
		Backends:      []string{bad.URL, good.URL},
		ProbeInterval: -1,
		HedgeAfter:    -1,
		RetryBudget:   1,    // one retry, then dry
		RetryRate:     1e-9, // effectively no refill
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	front := httptest.NewServer(f.Handler())
	t.Cleanup(front.Close)

	badName := f.Cluster().nodes[0].Name
	var reqs []api.MeasureRequest
	for runs := 1; runs <= 200 && len(reqs) < 2; runs++ {
		r := measureReq(runs)
		body, _ := json.Marshal(r)
		key, _, err := api.RequestKeyForPath("/measure", body)
		if err != nil {
			t.Fatal(err)
		}
		if f.Cluster().Owner(key).Name == badName {
			reqs = append(reqs, r)
		}
	}
	if len(reqs) < 2 {
		t.Fatal("not enough keys hash to the failing node")
	}

	// First request: 500 from the owner, one budget token, retry wins.
	resp, data := postJSON(t, front.URL+"/measure", reqs[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted retry: status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(api.HeaderAttempts); got != "2" {
		t.Fatalf("attempts = %s, want 2", got)
	}
	dresp, ddata := postJSON(t, good.URL+"/measure", reqs[0])
	if dresp.StatusCode != http.StatusOK || !bytes.Equal(data, ddata) {
		t.Fatalf("retried body diverges from direct")
	}

	// Second request: budget dry, the fleet's own 5xx body surfaces.
	resp, data = postJSON(t, front.URL+"/measure", reqs[1])
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("dry budget: status %d, want 500", resp.StatusCode)
	}
	if string(data) != `{"error":"induced backend failure"}` {
		t.Fatalf("dry budget body = %s, want the backend's own", data)
	}
	if got := f.Cluster().Health().Retried; got != 1 {
		t.Errorf("retried counter = %d, want 1", got)
	}
}

// TestFrontSessionLifecycle drives create -> snapshot -> stream ->
// delete through the proxy: creation pins the owner, every follow-up
// lands there, and the NDJSON stream passes through to its end event.
func TestFrontSessionLifecycle(t *testing.T) {
	f, front, _ := newFleet(t, 3, nil)
	req := api.SessionRequest{
		Measure:    api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr"},
		Steps:      24,
		WindowSize: 8,
	}
	resp, body := postJSON(t, front.URL+"/sessions", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	owner := resp.Header.Get(api.HeaderBackend)
	if resp.Header.Get(api.HeaderHedged) == "true" {
		t.Fatal("stateful create was hedged")
	}
	var created api.SessionCreated
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("bad creation body: %s (%v)", body, err)
	}
	if f.sessions.get(created.ID) == nil {
		t.Fatal("creation did not pin an owner")
	}

	snap, err := http.Get(front.URL + "/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap.Body.Close()
	if snap.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", snap.StatusCode)
	}
	if got := snap.Header.Get(api.HeaderBackend); got != owner {
		t.Fatalf("snapshot went to %s, owner is %s", got, owner)
	}

	stream, err := http.Get(front.URL + "/sessions/" + created.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var lines [][]byte
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil || len(lines) == 0 {
		t.Fatalf("stream: %v (%d lines)", err, len(lines))
	}
	var last api.StreamEvent
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != api.StreamEnd {
		t.Fatalf("final stream event = %s, want end", lines[len(lines)-1])
	}

	del, err := http.NewRequest(http.MethodDelete, front.URL+"/sessions/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	if f.sessions.get(created.ID) != nil {
		t.Error("delete did not unpin the owner")
	}
}

// TestFrontOwnerDiscovery: a front with no pin for an id (a restarted
// pcfront) finds the owning node by probing the fleet.
func TestFrontOwnerDiscovery(t *testing.T) {
	_, front, backends := newFleet(t, 3, nil)
	req := api.SessionRequest{
		Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr"},
		Steps:   8,
	}
	resp, body := postJSON(t, front.URL+"/sessions", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var created api.SessionCreated
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	urls := make([]string, len(backends))
	for i, b := range backends {
		urls[i] = b.URL
	}
	f2, err := NewFront(Config{Backends: urls, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f2.Close)
	front2 := httptest.NewServer(f2.Handler())
	t.Cleanup(front2.Close)

	snap, err := http.Get(front2.URL + "/sessions/" + created.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap.Body.Close()
	if snap.StatusCode != http.StatusOK {
		t.Fatalf("fresh front could not locate the session: status %d", snap.StatusCode)
	}
	if f2.sessions.get(created.ID) == nil {
		t.Error("locate did not cache the discovered owner")
	}
	if _, err := http.Get(front2.URL + "/sessions/nonesuch"); err != nil {
		t.Fatal(err)
	}
}

// TestFrontDrainAdmin: the drain endpoint removes a node from keyed
// routing, reports its state, and undrain restores it.
func TestFrontDrainAdmin(t *testing.T) {
	f, front, _ := newFleet(t, 3, nil)
	name := f.Cluster().nodes[0].Name
	resp, body := postJSON(t, front.URL+"/cluster/drain/"+name+"?wait=500ms", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d: %s", resp.StatusCode, body)
	}
	var info api.ClusterNode
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.State != api.NodeDraining || info.Inflight != 0 {
		t.Fatalf("drain report = %+v, want draining with 0 in-flight", info)
	}
	for i := 0; i < 8; i++ {
		resp, data := postJSON(t, front.URL+"/measure", measureReq(i+1))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("during drain: status %d: %s", resp.StatusCode, data)
		}
		if got := resp.Header.Get(api.HeaderBackend); got == name {
			t.Fatalf("keyed request landed on draining node %s", got)
		}
	}
	if resp, _ := postJSON(t, front.URL+"/cluster/undrain/"+name, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain: status %d", resp.StatusCode)
	}
	if got := f.Cluster().NodeInfo(name).State; got != api.NodeHealthy {
		t.Fatalf("after undrain: state %s", got)
	}
	if resp, _ := postJSON(t, front.URL+"/cluster/drain/nonesuch:1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain of unknown node: status %d, want 404", resp.StatusCode)
	}
}

// TestFrontHealthzAndMetrics: the cluster health body and the pcfront
// exposition families.
func TestFrontHealthzAndMetrics(t *testing.T) {
	_, front, _ := newFleet(t, 2, nil)
	if resp, data := postJSON(t, front.URL+"/measure", measureReq(2)); resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d %s", resp.StatusCode, data)
	}

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h api.ClusterHealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Nodes) != 2 {
		t.Fatalf("healthz = %+v", h)
	}

	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"pcfront_http_requests_total",
		"pcfront_http_request_duration_seconds",
		"pcfront_backend_request_duration_seconds",
		"pcfront_backend_requests_total",
		"pcfront_backend_state",
		"pcfront_hedged_requests_total",
		"pcfront_stream_owners",
		"pcfront_answer_cache_hits_total",
		"pcfront_answer_cache_misses_total",
		"pcfront_answer_cache_evictions_total",
		"pcfront_answer_cache_bytes",
		"pcfront_answer_cache_entries",
	} {
		if !bytes.Contains(text, []byte(family)) {
			t.Errorf("metrics missing family %s", family)
		}
	}
}

// TestOwnersBounded: the pin table evicts FIFO at capacity; a dropped
// pin is only a locate away.
func TestOwnersBounded(t *testing.T) {
	n := &Node{Name: "n:1"}
	o := newOwners(3)
	for i := 0; i < 5; i++ {
		o.put(fmt.Sprintf("id-%d", i), n)
	}
	if o.len() != 3 {
		t.Fatalf("len = %d, want 3", o.len())
	}
	if o.get("id-0") != nil || o.get("id-1") != nil {
		t.Fatal("oldest pins were not evicted")
	}
	if o.get("id-4") != n {
		t.Fatal("newest pin missing")
	}
	o.drop("id-4")
	if o.get("id-4") != nil {
		t.Fatal("drop did not remove the pin")
	}
}
