package main

import (
	"io"
	"net/http/httptest"
	"testing"

	clusterpkg "repro/internal/cluster"
	"repro/internal/server"
)

// inProcessStarter serves fleets from in-process nodes on httptest
// listeners instead of built binaries.
func inProcessStarter(cluster bool) (*fleet, error) {
	var closers []func()
	f := &fleet{stop: func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}}
	n := 1
	if cluster {
		n = clusterNodes
	}
	for i := 0; i < n; i++ {
		node := server.New(server.Config{})
		s := httptest.NewServer(node.Handler())
		closers = append(closers, node.Close, s.Close)
		f.nodes = append(f.nodes, s.URL)
	}
	f.target, f.scraped = f.nodes[0], f.nodes
	if cluster {
		front, err := clusterpkg.NewFront(clusterpkg.Config{Backends: f.nodes})
		if err != nil {
			f.stop()
			return nil, err
		}
		s := httptest.NewServer(front.Handler())
		closers = append(closers, front.Close, s.Close)
		f.target, f.scraped = s.URL, append(append([]string(nil), f.nodes...), s.URL)
	}
	return f, nil
}

// TestSmoke runs every workload end to end against in-process nodes
// with one-second phases, the layer ladder included, and requires zero
// failures and a passing correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about two seconds")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w, config{
				seed:    1,
				seconds: 1,
				trace:   true,
				setups:  1,
				clients: 2,
				start:   inProcessStarter,
				log:     io.Discard,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < verifySample {
				t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, name := range []string{"engine.run_share", "service.call_us", "server.handler_us", "cluster.hop_us", "client.span_overhead_ns"} {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("no %s in the traced result", name)
				}
			}
		})
	}
}
