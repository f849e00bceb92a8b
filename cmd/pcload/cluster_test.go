package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// newClusterFleet spins n real pcserved nodes and a pcfront over them,
// returning the front URL, the direct URL of node 0, and the backend
// servers (for mid-run kills).
func newClusterFleet(t *testing.T, n int) (front, direct string, backends []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	backends = make([]*httptest.Server, n)
	for i := range backends {
		backends[i] = newNode(t)
		urls[i] = backends[i].URL
	}
	f, err := cluster.NewFront(cluster.Config{
		Backends:      urls,
		ProbeInterval: -1,
		HedgeAfter:    -1,
		FailAfter:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	fsrv := httptest.NewServer(f.Handler())
	t.Cleanup(fsrv.Close)
	return fsrv.URL, urls[0], backends
}

// TestRunCluster drives the -cluster workload against a real 3-node
// fleet: zero failures, every body byte-identical to the direct node.
func TestRunCluster(t *testing.T) {
	front, direct, _ := newClusterFleet(t, 3)
	var buf bytes.Buffer
	if err := runCluster(&buf, front, direct, "K8/pc,CD/pc", 16, 4, 2); err != nil {
		t.Fatalf("runCluster: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"(0 failed)",
		"byte-identity:",
		"reuse:",
		"fleet:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunClusterSurvivesNodeKill kills one backend before the run: the
// front must fail over with zero failed requests and the bodies must
// still match the direct node byte for byte.
func TestRunClusterSurvivesNodeKill(t *testing.T) {
	front, direct, backends := newClusterFleet(t, 3)
	backends[1].Close() // not the direct node — the oracle must survive
	var buf bytes.Buffer
	if err := runCluster(&buf, front, direct, "K8/pc", 12, 4, 2); err != nil {
		t.Fatalf("runCluster with a dead node: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "(0 failed)") {
		t.Errorf("expected zero failures after node kill:\n%s", buf.String())
	}
}

// TestRunClusterValidation: the mode needs its oracle.
func TestRunClusterValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := runCluster(&buf, "http://x", "", "K8/pc", 4, 2, 2); err == nil {
		t.Fatal("runCluster without -direct succeeded")
	}
	if err := runCluster(&buf, "http://x", "http://y", "K8/pc", 4, 0, 2); err == nil {
		t.Fatal("runCluster with zero workers succeeded")
	}
}
