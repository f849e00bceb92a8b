package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestBuildPlanPlans(t *testing.T) {
	items, err := buildPlanPlans("K8/pc,CD/pc", 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 12 {
		t.Fatalf("items = %d, want 12", len(items))
	}
	// Every request is issued as an identical pair so the determinism
	// cross-check has duplicates to compare.
	for i := 0; i+1 < len(items); i += 2 {
		a, _ := json.Marshal(items[i].req)
		b, _ := json.Marshal(items[i+1].req)
		if string(a) != string(b) {
			t.Errorf("pair %d not identical:\n%s\nvs\n%s", i/2, a, b)
		}
	}
	// The rotation must include both dedicated and multiplexed variants.
	var dedicated, multiplexed int
	for _, item := range items {
		if len(item.req.Measure.Events) <= 2 {
			dedicated++
		} else {
			multiplexed++
		}
	}
	if dedicated == 0 || multiplexed == 0 {
		t.Errorf("variant rotation incomplete: dedicated=%d multiplexed=%d", dedicated, multiplexed)
	}

	if _, err := buildPlanPlans("garbage", 4); err == nil {
		t.Error("bad mix accepted")
	}
}

func TestRunPlanAgainstBackend(t *testing.T) {
	srv := newNode(t)
	var out bytes.Buffer
	if err := runPlan(&out, srv.URL, "K8/pc", 12, 4); err != nil {
		t.Fatalf("runPlan: %v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"plans:       12 (0 failed)", "attained:    12/12", "narrowing:", "determinism:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "DETERMINISM VIOLATION") {
		t.Errorf("determinism violation reported:\n%s", report)
	}
}

func TestRunPlanRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runPlan(&out, "http://x", "K8/pc", 4, 0); err == nil {
		t.Error("-c 0 accepted; would hang forever")
	}
	if err := runPlan(&out, "http://x", "K8/pc", -1, 2); err == nil {
		t.Error("negative -plans accepted")
	}
	if err := runPlan(&out, "http://x", "garbage", 4, 2); err == nil {
		t.Error("bad mix accepted")
	}
}
