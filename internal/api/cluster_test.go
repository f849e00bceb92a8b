package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestRequestKeyMatchesCoalescingKey: RequestKey must return exactly
// the key the service coalesces on — Normalized().Key() — for every
// wire request type, value or pointer. A divergence here would send
// pcfront's placement and the service's coalescing to different nodes.
func TestRequestKeyMatchesCoalescingKey(t *testing.T) {
	measure := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3}
	nm, err := measure.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	session := SessionRequest{Measure: measure, Steps: 8}
	ns, err := session.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	analyze := AnalyzeRequest{Items: []AnalyzeItem{{Measure: measure}}}
	na, err := analyze.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanRequest{Measure: MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"}, TargetRelWidth: 0.2}
	np, err := plan.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	campaign := CampaignRequest{Programs: 2}
	nc, err := campaign.Normalized()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		req  any
		want string
	}{
		{"measure", measure, nm.Key()},
		{"measure pointer", &measure, nm.Key()},
		{"analyze", analyze, "analyze|" + na.Items[0].Key()},
		{"plan", plan, np.Key()},
		{"plan pointer", &plan, np.Key()},
		{"experiment", ExperimentRequest{ID: "e1", Runs: 3, Seed: 7}, "exp|e1|r3|s7"},
		{"session", session, ns.SessionKey()},
		{"campaign", campaign, "campaign|" + nc.Key()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := RequestKey(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("RequestKey = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestRequestKeyCanonicalization: requests that mean the same thing —
// defaults implicit vs explicit — share one key.
func TestRequestKeyCanonicalization(t *testing.T) {
	implicit := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000"}
	explicit := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: DefaultPattern, Runs: DefaultRuns}
	ki, err := RequestKey(implicit)
	if err != nil {
		t.Fatal(err)
	}
	ke, err := RequestKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if ki != ke {
		t.Fatalf("implicit and explicit defaults key differently:\n%q\n%q", ki, ke)
	}
}

// TestRequestKeyErrors: validation failures surface as ErrBadRequest,
// unknown types are rejected.
func TestRequestKeyErrors(t *testing.T) {
	if _, err := RequestKey(MeasureRequest{Processor: "NOPE"}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid measure: err = %v, want ErrBadRequest", err)
	}
	if _, err := RequestKey(42); err == nil {
		t.Fatal("RequestKey(42) succeeded")
	}
}

// TestRequestKeyForPath: the body-decoding form agrees with the typed
// form on every endpoint, and rejects what it must.
func TestRequestKeyForPath(t *testing.T) {
	measure := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr", Runs: 3}
	cases := []struct {
		path string
		req  any
	}{
		{"/measure", measure},
		{"/analyze", AnalyzeRequest{Items: []AnalyzeItem{{Measure: measure}}}},
		{"/plan", PlanRequest{Measure: MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:400"}, TargetRelWidth: 0.2}},
		{"/infer", InferRequest{Items: []InferItem{{Processor: "K8", Inputs: []InferInput{
			{Event: "INSTR_RETIRED", Mean: 1000, Variance: 100},
			{Event: "CPU_CLK_UNHALTED", Mean: 2000, Variance: 400},
		}}}}},
		{"/experiment", ExperimentRequest{ID: "e1", Runs: 3, Seed: 7}},
		{"/sessions", SessionRequest{Measure: measure, Steps: 8}},
		{"/campaigns", CampaignRequest{Programs: 2}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			body, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			fromBody, _, err := RequestKeyForPath(tc.path, body)
			if err != nil {
				t.Fatal(err)
			}
			fromType, err := RequestKey(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if fromBody != fromType {
				t.Fatalf("keys disagree:\nbody: %q\ntype: %q", fromBody, fromType)
			}
		})
	}

	if _, _, err := RequestKeyForPath("/measure", []byte(`{`)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed JSON: err = %v, want ErrBadRequest", err)
	}
	if _, _, err := RequestKeyForPath("/nonesuch", []byte(`{}`)); err == nil {
		t.Fatal("unknown path accepted")
	}
}

// TestRequestKeyForPathTrace: the trace flag comes from the same typed
// decode as the key, only on the four trace-capable endpoints, and
// survives a body that decodes but fails validation or typing.
func TestRequestKeyForPathTrace(t *testing.T) {
	for _, tc := range []struct {
		path string
		body string
		want bool
	}{
		{"/measure", `{"trace": true, "metric": "instructions"}`, true},
		{"/measure", `{"metric": "instructions"}`, false},
		{"/measure", `{"trace": false}`, false},
		{"/analyze", `{"trace": true}`, true},
		{"/plan", `{"trace": true}`, true},
		{"/infer", `{"trace": true}`, true},
		{"/sessions", `{"trace": true}`, false}, // not trace-capable
		{"/experiment", `{"trace": true}`, false},
		{"/measure", `not json`, false},
		{"/measure", ``, false},
		{"/measure", `{"processor": "NOPE", "trace": true}`, true}, // invalid, still traced
		{"/measure", `{"runs": "three", "trace": true}`, true},     // type error, still traced
	} {
		if _, got, _ := RequestKeyForPath(tc.path, []byte(tc.body)); got != tc.want {
			t.Errorf("RequestKeyForPath(%q, %q) trace = %v, want %v", tc.path, tc.body, got, tc.want)
		}
	}
}

func TestClusterStatusFrom(t *testing.T) {
	front := ClusterHealthResponse{
		Status: "degraded",
		Nodes: []ClusterNode{
			{Name: "a:7001", State: NodeHealthy},
			{Name: "b:7002", State: NodeUnhealthy},
			{Name: "c:7003", State: NodeDraining},
		},
	}
	health := map[string]*HealthResponse{
		"a:7001": {Status: "ok"},
	}
	errs := map[string]string{
		"b:7002": "connection refused",
	}
	doc := ClusterStatusFrom(front, health, errs)
	if doc.Front.Status != "degraded" || len(doc.Backends) != 3 {
		t.Fatalf("doc: %+v", doc)
	}
	a := doc.Backends[0]
	if !a.Reachable || a.Health == nil || a.Health.Status != "ok" || a.Error != "" {
		t.Fatalf("row a: %+v", a)
	}
	b := doc.Backends[1]
	if b.Reachable || b.Health != nil || b.Error != "connection refused" {
		t.Fatalf("row b: %+v", b)
	}
	c := doc.Backends[2]
	if c.Reachable || c.Error != "unreachable" || c.Node.State != NodeDraining {
		t.Fatalf("row c: %+v", c)
	}
}
