package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunCampaignAgainstBackend(t *testing.T) {
	srv := newNode(t)
	var out bytes.Buffer
	if err := runCampaign(&out, srv.URL, "K8/pc", 4, 2, 2); err != nil {
		t.Fatalf("runCampaign: %v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"campaigns:   4 (0 failed, 0 ended early)",
		"programs:    8 swept, 0 findings",
		"determinism: 2 distinct configs, all paired streams identical",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	for _, banned := range []string{"DETERMINISM VIOLATION", "MODEL REFUTED"} {
		if strings.Contains(report, banned) {
			t.Errorf("report contains %q:\n%s", banned, report)
		}
	}
}

func TestRunCampaignRoundsToPairs(t *testing.T) {
	srv := newNode(t)
	var out bytes.Buffer
	if err := runCampaign(&out, srv.URL, "K8/pc", 3, 2, 2); err != nil {
		t.Fatalf("runCampaign: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "campaigns:   4 ") {
		t.Errorf("odd -campaigns not rounded up to pairs:\n%s", out.String())
	}
}

func TestRunCampaignRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runCampaign(&out, "http://x", "K8/pc", 4, 2, 0); err == nil {
		t.Error("-c 0 accepted; would hang forever")
	}
	if err := runCampaign(&out, "http://x", "K8/pc", 0, 2, 2); err == nil {
		t.Error("-campaigns 0 accepted")
	}
	if err := runCampaign(&out, "http://x", "K8/pc", 4, 0, 2); err == nil {
		t.Error("-programs 0 accepted")
	}
	if err := runCampaign(&out, "http://x", "garbage", 4, 2, 2); err == nil {
		t.Error("bad mix accepted")
	}
}
