// Cluster: the coordinator tier in process — a 3-node fleet of real
// pcserved nodes (internal/server) behind the consistent-hash front
// (internal/cluster, the engine behind cmd/pcfront). The demo proves
// the cluster contract from the outside:
//
//  1. Byte-identity: the same request answered through the front and
//     directly by each node, all four bodies identical byte for byte —
//     determinism makes placement an efficiency decision, not a
//     correctness one.
//  2. Affinity: identical requests hash to one owning node, so that
//     node's calibration cache and request coalescing see every twin
//     the front forwards.
//  3. Reuse: the front keeps a repeated answer after its second
//     sighting; the third identical request is answered from the
//     front's memory, no hop, same bytes.
//  4. Failover: kill the owning node; a fresh request it owned fails
//     over to a surviving replica, and the body matches a direct answer.
//  5. Drain: drain a node, watch fresh keys route around it, undrain.
//  6. Stitched tracing: a traced request through the front yields one
//     tree — the front's route/forward spans on top, the backend's own
//     trace nested verbatim underneath — and the fleet federates into
//     one /cluster/metrics exposition.
//
// Steps 4 and 5 give every request a fresh seed, so no answer comes
// from the cache and each one shows where the ring sent it.
//
// See docs/CLUSTER.md for the topology, hashing, hedging, and drain
// semantics, and docs/OBSERVABILITY.md for the trace catalogue.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/monitor"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	// Three real measurement nodes, each the full pcserved handler.
	var urls []string
	var backends []*httptest.Server
	for i := 0; i < 3; i++ {
		node := server.New(server.Config{
			Workers:         2,
			CalibrationRuns: 5,
			Monitor:         monitor.Config{SweepInterval: -1},
			Campaign:        campaign.Config{SweepInterval: -1},
		})
		defer node.Close()
		srv := httptest.NewServer(node.Handler())
		defer srv.Close()
		backends = append(backends, srv)
		urls = append(urls, srv.URL)
	}

	front, err := cluster.NewFront(cluster.Config{
		Backends:      urls,
		ProbeInterval: -1, // no background prober in a demo
		HedgeAfter:    -1,
		FailAfter:     1, // first transport failure ejects a dead node
	})
	if err != nil {
		log.Fatal(err)
	}
	defer front.Close()
	proxy := httptest.NewServer(front.Handler())
	defer proxy.Close()

	req := api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:10000", Pattern: "rr", Runs: 5}
	body, _ := json.Marshal(req)

	// 1. Byte-identity: through the front vs directly on every node.
	viaFront, backend := post(proxy.URL+"/measure", body)
	identical := true
	for _, b := range backends {
		direct, _ := post(b.URL+"/measure", body)
		identical = identical && bytes.Equal(viaFront.body, direct.body)
	}
	fmt.Printf("byte-identity: front answer (%d bytes, served by %s) matches all 3 direct answers: %v\n",
		len(viaFront.body), backend, identical)

	// 2. Affinity: the ring owner serves every identical request (the
	// first forwarded, the rest answered from the front's cache, which
	// names the node that produced the stored answer).
	key := keyOf(body)
	owner := front.Cluster().Owner(key).Name
	stable := true
	for i := 0; i < 5; i++ {
		_, served := post(proxy.URL+"/measure", body)
		stable = stable && served == owner
	}
	fmt.Printf("affinity:      ring owner %s served 5/5 identical requests: %v\n", owner, stable)

	// 3. Reuse: a body new to the front is forwarded twice, and its
	// answer is kept on the second sighting; the third is a hit.
	seed := uint64(100)
	fresh := func() []byte {
		seed++
		r := req
		r.Seed = seed
		b, _ := json.Marshal(r)
		return b
	}
	rbody := fresh()
	first, _ := post(proxy.URL+"/measure", rbody)
	second, _ := post(proxy.URL+"/measure", rbody)
	third, _ := post(proxy.URL+"/measure", rbody)
	fmt.Printf("reuse:         requests 1-2 forwarded: %v; request 3 a cache hit with 0 attempts: %v; bytes identical: %v\n",
		first.cache == "" && second.cache == "",
		third.cache == "hit" && third.attempts == "0",
		bytes.Equal(first.body, third.body))

	// 4. Failover: kill the owner; a fresh request it owned fails over,
	// and its answer matches a direct answer from a survivor.
	var killed *httptest.Server
	for i, b := range backends {
		if b.URL == front.Cluster().Owner(key).Base {
			killed = b
			b.Close()
			fmt.Printf("failover:      killed owning node %d (%s)\n", i, owner)
			break
		}
	}
	fbody := fresh()
	for front.Cluster().Owner(keyOf(fbody)).Name != owner {
		fbody = fresh()
	}
	afterKill, survivor := post(proxy.URL+"/measure", fbody)
	var direct answer
	for _, b := range backends {
		if b != killed {
			direct, _ = post(b.URL+"/measure", fbody)
			break
		}
	}
	fmt.Printf("failover:      %s answered a request %s owned after %s attempts; failed over: %v, body matches direct: %v\n",
		survivor, owner, afterKill.attempts, survivor != owner && afterKill.attempts != "1", bytes.Equal(afterKill.body, direct.body))

	// 5. Drain: take a surviving node out of rotation, then back in.
	name := survivor
	if _, err := front.Cluster().Drain(name); err != nil {
		log.Fatal(err)
	}
	avoided := true
	for i := 0; i < 5; i++ {
		_, served := post(proxy.URL+"/measure", fresh())
		avoided = avoided && served != name
	}
	fmt.Printf("drain:         draining %s; 5/5 fresh requests routed elsewhere: %v\n", name, avoided)
	if _, err := front.Cluster().Undrain(name); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drain:         %s undrained, state %s\n", name, front.Cluster().NodeInfo(name).State)

	// 6. Stitched tracing: the traced twin carries the cluster tree —
	// front spans plus the backend's trace verbatim — and everything
	// outside the trace block is untouched.
	treq := req
	treq.Trace = true
	tbody, _ := json.Marshal(treq)
	traced, _ := post(proxy.URL+"/measure", tbody)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(traced.body, &m); err != nil {
		log.Fatal(err)
	}
	var tree api.TraceInfo
	if err := json.Unmarshal(m["trace"], &tree); err != nil {
		log.Fatal(err)
	}
	var sub api.TraceInfo
	if err := json.Unmarshal(tree.Backend, &sub); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace:         origin=%s front spans=%d backend subtree spans=%d shape=%s\n",
		tree.Origin, len(tree.Spans), len(sub.Spans), tree.Shape())

	// The fleet in one scrape: the front's own families plus every
	// backend's /metrics merged (counters summed, gauges per node).
	fresp, err := http.Get(proxy.URL + "/cluster/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer fresp.Body.Close()
	fams, err := telemetry.ParseExposition(fresp.Body)
	if err != nil {
		log.Fatal(err)
	}
	merged := 0
	for _, fam := range fams {
		if strings.HasPrefix(fam.Name, "pcserved_") {
			merged++
		}
	}
	fmt.Printf("federation:    /cluster/metrics carries %d families, %d merged from the backends\n",
		len(fams), merged)
}

// answer is one response body with the front's routing headers (empty
// on direct requests).
type answer struct {
	body     []byte
	attempts string
	cache    string
}

// post sends a JSON body and returns the answer and the serving backend.
func post(url string, body []byte) (answer, string) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return answer{body: data, attempts: resp.Header.Get(api.HeaderAttempts), cache: resp.Header.Get(api.HeaderCache)},
		resp.Header.Get(api.HeaderBackend)
}

// keyOf returns a /measure body's canonical routing key.
func keyOf(body []byte) string {
	key, _, err := api.RequestKeyForPath("/measure", body)
	if err != nil {
		log.Fatal(err)
	}
	return key
}
