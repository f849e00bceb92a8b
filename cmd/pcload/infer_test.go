package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestBuildInferItems(t *testing.T) {
	items, err := buildInferItems("K8/pc,CD/pc", 18)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 18 {
		t.Fatalf("items = %d, want 18", len(items))
	}
	// Identical pairs for the determinism cross-check.
	for i := 0; i+1 < len(items); i += 2 {
		a, _ := json.Marshal(items[i].req)
		b, _ := json.Marshal(items[i+1].req)
		if string(a) != string(b) {
			t.Errorf("pair %d not identical:\n%s\nvs\n%s", i/2, a, b)
		}
	}
	// All three variants rotate in, including the planted inconsistency.
	var measured, raw, inconsistent int
	for _, item := range items {
		switch {
		case item.inconsistent:
			inconsistent++
		case item.req.Items[0].Inputs[0].Measure != nil:
			measured++
		default:
			raw++
		}
	}
	if measured == 0 || raw == 0 || inconsistent == 0 {
		t.Errorf("variant rotation incomplete: measured=%d raw=%d inconsistent=%d",
			measured, raw, inconsistent)
	}

	if _, err := buildInferItems("garbage", 4); err == nil {
		t.Error("bad mix accepted")
	}
}

func TestRunInferAgainstBackend(t *testing.T) {
	srv := newNode(t)
	var out bytes.Buffer
	if err := runInfer(&out, srv.URL, "K8/pc", 18, 4); err != nil {
		t.Fatalf("runInfer: %v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"infers:      18 (0 failed)", "tightening:", "residuals:", "determinism:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "DETERMINISM VIOLATION") {
		t.Errorf("determinism violation reported:\n%s", report)
	}
}

// TestRunInferDefaultMixSixInfers is the smallest run that can judge
// the residual check: with the default four-entry mix, six requests
// (three identical pairs) must include a planted pair, and the
// report must show it flagged.
func TestRunInferDefaultMixSixInfers(t *testing.T) {
	srv := newNode(t)
	var out bytes.Buffer
	if err := runInfer(&out, srv.URL, "K8/pc,K8/pm,CD/pc,CD/PHpm", 6, 2); err != nil {
		t.Fatalf("runInfer: %v\noutput:\n%s", err, out.String())
	}
	if want := "residuals:   2/2 planted inconsistencies flagged, 4/4 clean items clean"; !strings.Contains(out.String(), want) {
		t.Errorf("report missing %q:\n%s", want, out.String())
	}
}

// TestReportInferFailsOnEmptyDenominators guards against a verdict on
// nothing: without a planted outcome, a clean one, an interval, or an
// answer compared with an earlier one, the report must fail rather than
// print 0/0 and pass.
func TestReportInferFailsOnEmptyDenominators(t *testing.T) {
	ok := func(planted bool, events int) inferOutcome {
		return inferOutcome{
			reply:      reply{sent: []byte(fmt.Sprint(planted)), status: http.StatusOK, body: []byte("{}")},
			consistent: !planted, wantFlag: planted, flagged: planted, events: events,
		}
	}
	for _, tc := range []struct {
		name    string
		results []inferOutcome
		wantErr string
	}{
		{"no planted outcome", []inferOutcome{ok(false, 1), ok(false, 1)}, "planted inconsistency"},
		{"no clean outcome", []inferOutcome{ok(true, 1), ok(true, 1)}, "clean check"},
		{"no outcome", nil, "planted inconsistency"},
		{"no interval", []inferOutcome{ok(false, 0), ok(false, 0), ok(true, 0), ok(true, 0)}, "posterior<=prior"},
		{"no repeated answer", []inferOutcome{ok(false, 1), ok(true, 1)}, "compared nothing"},
	} {
		var out bytes.Buffer
		err := reportInfer(&out, tc.results, time.Second)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: reportInfer error = %v, want one naming the %s\noutput:\n%s", tc.name, err, tc.wantErr, out.String())
		}
	}
	var out bytes.Buffer
	if err := reportInfer(&out, []inferOutcome{ok(false, 1), ok(false, 1), ok(true, 1), ok(true, 1)}, time.Second); err != nil {
		t.Errorf("a clean and a planted pair: %v\noutput:\n%s", err, out.String())
	}
}

func TestRunInferRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runInfer(&out, "http://x", "K8/pc", 4, 0); err == nil {
		t.Error("-c 0 accepted; would hang forever")
	}
	if err := runInfer(&out, "http://x", "K8/pc", -1, 2); err == nil {
		t.Error("negative -infers accepted")
	}
	if err := runInfer(&out, "http://x", "garbage", 4, 2); err == nil {
		t.Error("bad mix accepted")
	}
}
