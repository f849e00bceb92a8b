package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/api"
	"repro/internal/telemetry"
)

// postRaw sends raw bytes and returns the response and its body.
func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
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

// isHit reports whether a front response came from the answer cache.
func isHit(resp *http.Response) bool { return resp.Header.Get(api.HeaderCache) == "hit" }

// TestFrontAnswerReuse: on every reusing endpoint the first two
// identical bodies are forwarded and the third is a hit — zero
// attempts, the cache header, the request key, and the node that
// produced the answer — and every answer is byte-identical to a direct
// node answer.
func TestFrontAnswerReuse(t *testing.T) {
	f, front, backends := newFleet(t, 3, nil)
	cases := []struct {
		path string
		body any
	}{
		{"/measure", measureReq(3)},
		{"/analyze", api.AnalyzeRequest{Items: []api.AnalyzeItem{{Measure: measureReq(4)}}}},
		{"/plan", api.PlanRequest{Measure: api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"},
			TargetRelWidth: 0.2, Counters: 2}},
		{"/infer", api.InferRequest{Items: []api.InferItem{{Processor: "K8", Inputs: []api.InferInput{
			{Event: "INSTR_RETIRED", Mean: 1000, Variance: 100},
			{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400},
		}}}}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			key, _, err := api.RequestKeyForPath(tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			owner := f.Cluster().Owner(key).Name
			_, direct := postRaw(t, backends[0].URL+tc.path, body)
			var forwarded *http.Response
			for i := 1; i <= 3; i++ {
				resp, data := postRaw(t, front.URL+tc.path, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, data)
				}
				if !bytes.Equal(data, direct) {
					t.Fatalf("request %d diverges from direct:\n%s\nvs\n%s", i, data, direct)
				}
				if resp.Header.Get(api.HeaderBackend) != owner {
					t.Fatalf("request %d: backend %q, owner %s", i, resp.Header.Get(api.HeaderBackend), owner)
				}
				if i < 3 {
					if isHit(resp) || resp.Header.Get(api.HeaderAttempts) != "1" {
						t.Fatalf("request %d: want forwarded once, got cache %q attempts %s",
							i, resp.Header.Get(api.HeaderCache), resp.Header.Get(api.HeaderAttempts))
					}
					forwarded = resp
					continue
				}
				if !isHit(resp) || resp.Header.Get(api.HeaderAttempts) != "0" {
					t.Fatalf("third request: want a hit, got cache %q attempts %s",
						resp.Header.Get(api.HeaderCache), resp.Header.Get(api.HeaderAttempts))
				}
				for _, h := range []string{api.HeaderRequestKey, "Content-Type"} {
					if resp.Header.Get(h) != forwarded.Header.Get(h) {
						t.Errorf("hit %s = %q, forwarded %q", h, resp.Header.Get(h), forwarded.Header.Get(h))
					}
				}
			}
		})
	}
}

// TestFrontAnswerReuseVerdicts: a body that canonicalizes but is
// refused (PHpm cannot read with pattern rr) gets a 400 that is reused
// like any answer; a body that does not canonicalize — malformed JSON,
// an unknown bench — is forwarded every time and never stored.
func TestFrontAnswerReuseVerdicts(t *testing.T) {
	f, front, backends := newFleet(t, 2, nil)
	refused, _ := json.Marshal(api.MeasureRequest{Processor: "K8", Stack: "PHpm", Bench: "loop:1000", Pattern: "rr"})
	if _, _, err := api.RequestKeyForPath("/measure", refused); err != nil {
		t.Fatalf("PHpm/rr must canonicalize: %v", err)
	}
	_, direct := postRaw(t, backends[0].URL+"/measure", refused)
	for i := 1; i <= 3; i++ {
		resp, data := postRaw(t, front.URL+"/measure", refused)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(data, direct) {
			t.Fatalf("request %d: status %d, body %s; want the direct 400 %s", i, resp.StatusCode, data, direct)
		}
		if isHit(resp) != (i == 3) {
			t.Fatalf("request %d: hit = %v", i, isHit(resp))
		}
	}

	unknownBench, _ := json.Marshal(api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "nonesuch:1"})
	for _, body := range [][]byte{[]byte(`{"processor": "K8",`), unknownBench} {
		if _, _, err := api.RequestKeyForPath("/measure", body); err == nil {
			t.Fatalf("%s canonicalizes; the test needs one that does not", body)
		}
		_, direct := postRaw(t, backends[0].URL+"/measure", body)
		for i := 1; i <= 4; i++ {
			resp, data := postRaw(t, front.URL+"/measure", body)
			if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(data, direct) {
				t.Fatalf("%s request %d: status %d, body %s", body, i, resp.StatusCode, data)
			}
			if isHit(resp) || resp.Header.Get(api.HeaderAttempts) != "1" {
				t.Fatalf("%s request %d: not forwarded (cache %q)", body, i, resp.Header.Get(api.HeaderCache))
			}
		}
	}
	if s := f.answers.stats(); s.entries != 1 {
		t.Fatalf("entries = %d, want only the refused request's 400", s.entries)
	}
}

// TestFrontAnswerNeverStoresFailures: a backend that answers 500 three
// times and 503 three times before it answers 200 gets every failure
// passed through and none stored; the 200 is stored on its second
// sighting like any answer.
func TestFrontAnswerNeverStoresFailures(t *testing.T) {
	const okBody = `{"answer":"ok"}` + "\n"
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch n := calls.Add(1); {
		case n <= 3:
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"induced failure"}`)
		case n <= 6:
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"error":"context canceled"}`)
		default:
			io.WriteString(w, okBody)
		}
	}))
	t.Cleanup(flaky.Close)
	f, err := NewFront(Config{Backends: []string{flaky.URL}, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	front := httptest.NewServer(f.Handler())
	t.Cleanup(front.Close)

	body, _ := json.Marshal(measureReq(3))
	want := []int{500, 500, 500, 503, 503, 503, 200, 200, 200}
	for i, status := range want {
		resp, data := postRaw(t, front.URL+"/measure", body)
		if resp.StatusCode != status {
			t.Fatalf("request %d: status %d (%s), want %d", i+1, resp.StatusCode, data, status)
		}
		if hit := isHit(resp); hit != (i == len(want)-1) {
			t.Fatalf("request %d (status %d): hit = %v", i+1, status, hit)
		}
		if status == http.StatusOK && string(data) != okBody {
			t.Fatalf("request %d: body %s", i+1, data)
		}
	}
	if got := calls.Load(); got != int64(len(want)-1) {
		t.Fatalf("backend saw %d requests, want %d", got, len(want)-1)
	}
}

// TestFrontAnswerTracedTwin: the traced twin of a cached body is never
// answered from the cache — it reaches a backend, carries a backend
// subtree, and equals the cached bytes once its trace block is
// stripped — and traced requests never fill the cache.
func TestFrontAnswerTracedTwin(t *testing.T) {
	f, front, _ := newFleet(t, 2, nil)
	plain, _ := json.Marshal(measureReq(3))
	var cached []byte
	for i := 0; i < 3; i++ {
		_, cached = postRaw(t, front.URL+"/measure", plain)
	}
	treq := measureReq(3)
	treq.Trace = true
	traced, _ := json.Marshal(treq)
	resp, data := postRaw(t, front.URL+"/measure", traced)
	if resp.StatusCode != http.StatusOK || isHit(resp) || resp.Header.Get(api.HeaderAttempts) != "1" {
		t.Fatalf("traced twin: status %d, cache %q, attempts %s; want forwarded",
			resp.StatusCode, resp.Header.Get(api.HeaderCache), resp.Header.Get(api.HeaderAttempts))
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	stitched := decodeTrace(t, m["trace"])
	if len(stitched.Backend) == 0 || spanCount(stitched, telemetry.SpanForward) != 1 {
		t.Fatalf("traced twin lost its live backend subtree: %+v", stitched)
	}
	strip := func(body []byte) string {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatal(err)
		}
		delete(m, "trace")
		out, _ := json.Marshal(m)
		return string(out)
	}
	if strip(data) != strip(cached) {
		t.Fatalf("traced twin differs from the cached answer outside its trace block:\n%s\nvs\n%s", data, cached)
	}

	before := f.answers.stats()
	other := measureReq(4)
	other.Trace = true
	otherTraced, _ := json.Marshal(other)
	for i := 0; i < 3; i++ {
		if resp, _ := postRaw(t, front.URL+"/measure", otherTraced); isHit(resp) {
			t.Fatalf("traced request %d was a hit", i+1)
		}
	}
	if after := f.answers.stats(); after != before {
		t.Fatalf("traced requests touched the cache: %+v -> %+v", before, after)
	}
	other.Trace = false
	if resp, _ := postJSON(t, front.URL+"/measure", other); isHit(resp) {
		t.Fatal("untraced twin of traced-only requests was a hit")
	}
}

// TestFrontSessionsNeverReused: identical session creations each
// reach a node and each mint a session of their own.
func TestFrontSessionsNeverReused(t *testing.T) {
	_, front, _ := newFleet(t, 2, nil)
	req := api.SessionRequest{Measure: measureReq(1), Steps: 4}
	ids := make(map[string]bool)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, front.URL+"/sessions", req)
		if resp.StatusCode != http.StatusCreated || isHit(resp) {
			t.Fatalf("create %d: status %d, cache %q: %s", i+1, resp.StatusCode, resp.Header.Get(api.HeaderCache), body)
		}
		var created api.SessionCreated
		if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
			t.Fatalf("create %d: bad body %s (%v)", i+1, body, err)
		}
		ids[created.ID] = true
	}
	if len(ids) != 3 {
		t.Fatalf("3 identical creations minted %d sessions", len(ids))
	}
}

// offer puts an answer twice, so it passes admission.
func offer(c *answers, key string, body []byte) {
	c.put(key, http.StatusOK, "application/json", "n:1", body)
	c.put(key, http.StatusOK, "application/json", "n:1", body)
}

// TestAnswersAdmission: an answer is stored on its key's second
// sighting, as an exact-size copy that shares nothing with the
// caller's buffer; a second key landing in the same slot displaces
// the first key's sighting.
func TestAnswersAdmission(t *testing.T) {
	c := newAnswers(1 << 20)
	buf := append(make([]byte, 0, 64), `{"n":1}`...)
	c.put("k", http.StatusOK, "application/json", "n:1", buf)
	if c.get("k") != nil {
		t.Fatal("stored on first sighting")
	}
	c.put("k", http.StatusOK, "application/json", "n:1", buf)
	a := c.get("k")
	if a == nil {
		t.Fatal("not stored on second sighting")
	}
	buf[0] = 'X'
	if string(a.body) != `{"n":1}` || cap(a.body) != len(a.body) {
		t.Fatalf("stored body %q (cap %d) is not an exact-size copy", a.body, cap(a.body))
	}
	if a.status != http.StatusOK || a.contentType != "application/json" || a.backend != "n:1" {
		t.Fatalf("stored answer %+v", a)
	}

	// Find another key with the same slot as "x".
	slot := hashKey("x") % answerAdmitSlots
	other := ""
	for i := 0; other == "" && i < 1<<24; i++ {
		if k := fmt.Sprint("y", i); hashKey(k)%answerAdmitSlots == slot {
			other = k
		}
	}
	if other == "" {
		t.Fatal("no key shares a slot with x")
	}
	c.put("x", http.StatusOK, "", "n:1", []byte("1"))
	c.put(other, http.StatusOK, "", "n:1", []byte("2"))
	c.put("x", http.StatusOK, "", "n:1", []byte("1"))
	if c.get("x") != nil {
		t.Fatal("a displaced sighting still admitted its key")
	}
}

// TestAnswersByteBound: the charged bytes never exceed the bound,
// eviction takes the least recently used entry, and an answer larger
// than the bound is refused outright.
func TestAnswersByteBound(t *testing.T) {
	body := bytes.Repeat([]byte("b"), 100)
	one := (&answer{key: "k0", contentType: "application/json", body: body}).size()
	c := newAnswers(3 * one)
	for _, k := range []string{"k0", "k1", "k2"} {
		offer(c, k, body)
	}
	if c.get("k0") == nil { // k0 is now the most recently used
		t.Fatal("k0 missing before the cache was full")
	}
	offer(c, "k3", body)
	if c.get("k1") != nil {
		t.Fatal("least recently used entry k1 survived")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if c.get(k) == nil {
			t.Fatalf("%s evicted", k)
		}
	}
	if s := c.stats(); s.bytes > c.limit || s.bytes != 3*one || s.entries != 3 {
		t.Fatalf("bytes %d (limit %d), entries %d", s.bytes, c.limit, s.entries)
	}

	huge := bytes.Repeat([]byte("h"), int(c.limit))
	offer(c, "huge", huge)
	if c.get("huge") != nil {
		t.Fatal("an answer larger than the bound was stored")
	}
	if s := c.stats(); s.entries != 3 || s.evictions != 1 {
		t.Fatalf("refusing the oversized answer disturbed the cache: %+v", s)
	}
}

// TestAnswersCounters: hits, misses, evictions, bytes and entries
// count exactly what happened.
func TestAnswersCounters(t *testing.T) {
	body := []byte("0123456789")
	one := (&answer{key: "a", contentType: "application/json", body: body}).size()
	c := newAnswers(2 * one)
	c.get("a")          // miss
	offer(c, "a", body) // stored
	c.get("a")          // hit
	c.get("a")          // hit
	offer(c, "b", body) // stored
	offer(c, "c", body) // stored, evicts a
	c.get("a")          // miss
	want := answerStats{hits: 2, misses: 2, evictions: 1, bytes: 2 * one, entries: 2}
	if got := c.stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestAnswersConcurrent: many goroutines look up and offer overlapping
// keys under a bound small enough to evict constantly; the counters
// and the charged bytes stay consistent and every answer read back is
// the one stored for its key.
func TestAnswersConcurrent(t *testing.T) {
	body := func(k int) []byte { return []byte(fmt.Sprintf(`{"key":%d}`, k)) }
	one := (&answer{key: "k00", contentType: "application/json", body: body(10)}).size()
	c := newAnswers(8 * one)
	const workers, ops, keys = 8, 2000, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (i*7 + w) % keys
				key := fmt.Sprintf("k%02d", k)
				if a := c.get(key); a != nil {
					if !bytes.Equal(a.body, body(k)) {
						t.Errorf("%s read back %s", key, a.body)
					}
					continue
				}
				c.put(key, http.StatusOK, "application/json", "n:1", body(k))
			}
		}(w)
	}
	wg.Wait()
	s := c.stats()
	if s.hits+s.misses != workers*ops {
		t.Fatalf("hits %d + misses %d != %d lookups", s.hits, s.misses, workers*ops)
	}
	var sum int64
	for e := c.lru.Front(); e != nil; e = e.Next() {
		sum += e.Value.(*answer).size()
	}
	if s.bytes != sum || s.bytes > c.limit || s.entries != len(c.byKey) {
		t.Fatalf("charged %d, held %d, limit %d, entries %d, map %d", s.bytes, sum, c.limit, s.entries, len(c.byKey))
	}
}

// hopBody is the stub backends' fixed answer: about 600 bytes, the size
// of a small /measure answer, so the benchmark times the hop rather
// than any measurement.
var hopBody = []byte(`{"answer":"` + strings.Repeat("x", 580) + `"}` + "\n")

// BenchmarkFrontHop times one request through the front over three stub
// backends that answer every POST with hopBody: miss sends a fresh seed
// each iteration, so every request is forwarded; hit sends one body
// twice before the timer, so every timed request is answered from the
// cache.
func BenchmarkFrontHop(b *testing.B) {
	urls := make([]string, 3)
	for i := range urls {
		stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				io.Copy(io.Discard, r.Body)
				w.Header().Set("Content-Type", "application/json")
				w.Write(hopBody)
			}
		}))
		defer stub.Close()
		urls[i] = stub.URL
	}
	f, err := NewFront(Config{Backends: urls, ProbeInterval: -1, HedgeAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	client := front.Client()
	send := func(body []byte) {
		resp, err := client.Post(front.URL+"/measure", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	body := func(seed uint64) []byte {
		req := measureReq(3)
		req.Seed = seed
		out, _ := json.Marshal(req)
		return out
	}

	var seed uint64 // fresh across every run of the miss benchmark
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			seed++
			send(body(seed))
		}
	})
	b.Run("hit", func(b *testing.B) {
		hot := body(0)
		send(hot)
		send(hot)
		b.ReportAllocs()
		for b.Loop() {
			send(hot)
		}
	})
}
