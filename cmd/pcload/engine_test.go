package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/api"
)

func TestBuildPlan(t *testing.T) {
	plan, err := buildPlan("K8/pc,CD/PHpm", 40, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 40 {
		t.Fatalf("plan size = %d, want 40", len(plan))
	}
	patterns := make(map[string]bool)
	for _, req := range plan {
		patterns[req.Stack+"/"+req.Pattern] = true
		if strings.HasPrefix(req.Stack, "PH") && (req.Pattern == "rr" || req.Pattern == "ro") {
			t.Errorf("PH stack assigned unsupported pattern %s", req.Pattern)
		}
		if req.Runs != 3 || req.Seed < 1 || req.Seed > 4 || req.Calibrate {
			t.Errorf("request %+v: want 3 runs, a seed in 1..4, no calibration", req)
		}
	}
	// K8/pc cycles all four patterns; CD/PHpm's rr/ro are clamped to ar,
	// leaving ar/ao.
	if len(patterns) != 6 {
		t.Errorf("distinct stack/pattern pairs = %d (%v), want 6", len(patterns), patterns)
	}

	if _, err := buildPlan("garbage", 10, 1, 1); err == nil {
		t.Error("bad mix accepted")
	}
	if _, err := buildPlan("K8/pc", 10, 1, 0); err == nil {
		t.Error("zero seeds accepted")
	}
}

func TestBuildEnginePairs(t *testing.T) {
	pairs, err := buildEnginePairs("K8/pc,CD/pc", 16, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 16 {
		t.Fatalf("pairs = %d, want 16", len(pairs))
	}
	for _, p := range pairs {
		if p.req.Engine != "" {
			t.Errorf("pair %s carries engine %q; pinning happens per shot", p.key, p.req.Engine)
		}
	}
	if _, err := buildEnginePairs("garbage", 4, 1, 1); err == nil {
		t.Error("bad mix accepted")
	}
	if _, err := buildEnginePairs("K8/pc", 4, 1, 0); err == nil {
		t.Error("zero seeds accepted")
	}
}

// TestRunEngineAgainstBackend drives the cross-engine workload against
// a real service: every interpreter/compiled pair must come back
// byte-identical under concurrent load.
func TestRunEngineAgainstBackend(t *testing.T) {
	srv := newNode(t)
	var out bytes.Buffer
	if err := runEngine(&out, srv.URL, "K8/pc,CD/pc", 12, 4, 2, 4); err != nil {
		t.Fatalf("runEngine: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "engine pairs, interpreter and compiled byte-identical") {
		t.Fatalf("missing conformance line:\n%s", out.String())
	}
}

// TestFireEngineClearsEcho checks the normalization that makes the two
// engines' responses comparable: the echoed selector must not leak into
// the compared body.
func TestFireEngineClearsEcho(t *testing.T) {
	srv := newNode(t)
	pair := enginePair{key: "k", req: api.MeasureRequest{
		Processor: "K8", Stack: "pc", Bench: "loop:1000", Runs: 1,
	}}
	out := fireEngine(srv.Client(), srv.URL, pair, api.EngineInterpreter)
	if out.err != nil || out.status != 200 {
		t.Fatalf("fireEngine: err=%v status=%d", out.err, out.status)
	}
	if strings.Contains(out.body, api.EngineInterpreter) {
		t.Fatalf("normalized body still names the engine:\n%s", out.body)
	}
}
