package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/campaign"
	"repro/internal/monitor"
)

// oneSlotServer serves a node whose session and campaign registries
// each admit one active entry, so a single long-running entry fills
// the bound.
func oneSlotServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	node := New(Config{
		Workers:         2,
		CalibrationRuns: 5,
		Monitor:         monitor.Config{SweepInterval: -1, MaxSessions: 1},
		Campaign:        campaign.Config{SweepInterval: -1, MaxCampaigns: 1},
	})
	t.Cleanup(node.Close)
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)
	return node, srv
}

// exchange sends one request and returns the status and the exact
// response body.
func exchange(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	return resp.StatusCode, string(data)
}

// mustJSON marshals a request body.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamRoutesWireBytes pins the status and the exact body bytes
// of every error answer the /sessions and /campaigns routes give: a
// malformed or invalid body (400), an unknown ID on each of GET,
// /stream and DELETE (404), a creation over the active bound (503),
// and a creation after the node drained (503). The error texts are
// the registries' sentinels, so they are part of the wire contract.
func TestStreamRoutesWireBytes(t *testing.T) {
	_, live := oneSlotServer(t)
	drained, closed := oneSlotServer(t)
	drained.Close()

	longSession := api.SessionRequest{
		Measure:    api.MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:1000", Pattern: "rr"},
		Steps:      10_000,
		WindowSize: 8,
		IntervalMS: 5, // paced: still producing while the table runs
	}
	badSession := longSession
	badSession.WindowSize = 1
	longCampaign := api.CampaignRequest{Programs: 200, Runs: 4}
	badCampaign := api.CampaignRequest{Runs: 1}

	// Fill each registry's only active slot.
	for _, open := range []struct{ path, body string }{
		{"/sessions", mustJSON(t, longSession)},
		{"/campaigns", mustJSON(t, longCampaign)},
	} {
		if status, body := exchange(t, http.MethodPost, live.URL+open.path, open.body); status != http.StatusCreated {
			t.Fatalf("POST %s: status %d, body %s", open.path, status, body)
		}
	}

	const (
		sessionNotFound  = `{"error":"monitor: no such session: s9"}` + "\n"
		campaignNotFound = `{"error":"campaign: no such campaign: c9"}` + "\n"
	)
	cases := []struct {
		name   string
		srv    *httptest.Server
		method string
		path   string
		body   string
		status int
		want   string
	}{
		{"session malformed body", live, http.MethodPost, "/sessions", "{", http.StatusBadRequest,
			`{"error":"decoding request: unexpected EOF"}` + "\n"},
		{"session invalid body", live, http.MethodPost, "/sessions", mustJSON(t, badSession), http.StatusBadRequest,
			`{"error":"bad request: api: session window size 1 out of range 2-1024"}` + "\n"},
		{"session get unknown", live, http.MethodGet, "/sessions/s9", "", http.StatusNotFound, sessionNotFound},
		{"session stream unknown", live, http.MethodGet, "/sessions/s9/stream", "", http.StatusNotFound, sessionNotFound},
		{"session delete unknown", live, http.MethodDelete, "/sessions/s9", "", http.StatusNotFound, sessionNotFound},
		{"session over the active bound", live, http.MethodPost, "/sessions", mustJSON(t, longSession), http.StatusServiceUnavailable,
			`{"error":"monitor: too many sessions (limit 1)"}` + "\n"},
		{"session after close", closed, http.MethodPost, "/sessions", mustJSON(t, longSession), http.StatusServiceUnavailable,
			`{"error":"monitor: registry closed"}` + "\n"},

		{"campaign malformed body", live, http.MethodPost, "/campaigns", "{", http.StatusBadRequest,
			`{"error":"decoding request: unexpected EOF"}` + "\n"},
		{"campaign invalid body", live, http.MethodPost, "/campaigns", mustJSON(t, badCampaign), http.StatusBadRequest,
			`{"error":"bad request: api: campaign runs 1 out of range 2-10000"}` + "\n"},
		{"campaign get unknown", live, http.MethodGet, "/campaigns/c9", "", http.StatusNotFound, campaignNotFound},
		{"campaign stream unknown", live, http.MethodGet, "/campaigns/c9/stream", "", http.StatusNotFound, campaignNotFound},
		{"campaign delete unknown", live, http.MethodDelete, "/campaigns/c9", "", http.StatusNotFound, campaignNotFound},
		{"campaign over the active bound", live, http.MethodPost, "/campaigns", mustJSON(t, longCampaign), http.StatusServiceUnavailable,
			`{"error":"campaign: too many campaigns (limit 1)"}` + "\n"},
		{"campaign after close", closed, http.MethodPost, "/campaigns", mustJSON(t, longCampaign), http.StatusServiceUnavailable,
			`{"error":"campaign: registry closed"}` + "\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := exchange(t, tc.method, tc.srv.URL+tc.path, tc.body)
			if status != tc.status || body != tc.want {
				t.Errorf("%s %s = %d %q, want %d %q", tc.method, tc.path, status, body, tc.status, tc.want)
			}
		})
	}
}
