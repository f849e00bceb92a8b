package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/monitor"
	"repro/internal/server"
)

// newNode serves one real pcserved node, its production route table
// and wire behavior, on a test listener.
func newNode(t *testing.T) *httptest.Server {
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

func TestBuildMixedPlan(t *testing.T) {
	items, err := buildMixedPlan("K8/pc,CD/pc", 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 16 {
		t.Fatalf("items = %d, want 16", len(items))
	}
	counts := make(map[string]int)
	for _, it := range items {
		counts[it.endpoint()]++
	}
	for _, ep := range []string{"/measure", "/analyze", "/plan", "/infer"} {
		if counts[ep] != 4 {
			t.Errorf("endpoint %s got %d items, want 4 (of %v)", ep, counts[ep], counts)
		}
	}
	if _, err := buildMixedPlan("garbage", 8, 2); err == nil {
		t.Error("bad mix accepted")
	}
}

// TestRunRejectsBadFlags checks the command line: exactly one mode, and
// an error naming the modes otherwise.
func TestRunRejectsBadFlags(t *testing.T) {
	modes := "-engine, -plan, -infer, -campaign, -trace, -cluster"
	for _, tc := range []struct {
		args    []string
		wantErr string
	}{
		{nil, modes},
		{[]string{"-n", "4"}, modes},
		{[]string{"-trace", "-cluster"}, modes},
		{[]string{"-engine", "-c", "0"}, "-c must be positive"},
		{[]string{"-calibrate"}, "flag provided but not defined"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-addr", "http://127.0.0.1:1"}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("run %q: error %v, want one containing %q", tc.args, err, tc.wantErr)
		}
	}
}

// TestRunAgainstBackend runs every mode through the command line
// against real nodes and a front. A real run passes and prints the
// verdict line CI greps for; -plans and -infers round odd counts up to
// identical pairs; and no verdict passes on nothing: a run that sends
// nothing, or compares no answer with another, fails without printing
// a passing verdict.
func TestRunAgainstBackend(t *testing.T) {
	front, node, _ := newClusterFleet(t, 2)
	for _, tc := range []struct {
		addr    string
		args    string
		wantErr string // "" when the run must pass
		want    string // a line the report must carry
	}{
		{node, "-engine -n 4", "", "conformance: 4 engine pairs"},
		{node, "-engine -n 0", "compared nothing", ""},
		{node, "-plan -plans 1", "", "plans:       2 (0 failed)"},
		{node, "-plan -plans 0", "compared nothing", ""},
		{node, "-infer -infers 5", "", "infers:      6 (0 failed)"},
		{node, "-infer -infers 0", "ran on nothing", ""},
		{node, "-campaign -campaigns 1 -programs 1", "", "campaigns:   2 (0 failed, 0 ended early)"},
		{node, "-trace -n 4", "", "trace:       all pairs byte-identical"},
		{node, "-trace -n 0", "ran on nothing", ""},
		{front, "-trace -direct " + node + " -n 8", "", "stitching:"},
		{front, "-trace -direct " + node + " -n 0", "ran on nothing", ""},
		{front, "-cluster -direct " + node + " -n 0", "ran on nothing", ""},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-addr", tc.addr, "-mix", "K8/pc", "-c", "2"}, strings.Fields(tc.args)...), &out)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("pcload %s: %v\n%s", tc.args, err, out.String())
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("pcload %s: error %v, want one containing %q\n%s", tc.args, err, tc.wantErr, out.String())
		case !strings.Contains(out.String(), tc.want):
			t.Errorf("pcload %s: report missing %q:\n%s", tc.args, tc.want, out.String())
		}
		for _, verdict := range []string{"determinism:", "conformance:", "trace:", "stitching:", "byte-identity:"} {
			if tc.wantErr != "" && strings.Contains(out.String(), verdict) {
				t.Errorf("pcload %s failed but printed a passing %q line:\n%s", tc.args, verdict, out.String())
			}
		}
	}
}
