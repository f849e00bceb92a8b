package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRunTraceAgainstBackend drives the -trace workload end to end:
// every pair must pass the span-presence and strip-identity checks
// against a real node.
func TestRunTraceAgainstBackend(t *testing.T) {
	srv := newNode(t)
	var out bytes.Buffer
	if err := runTrace(&out, srv.URL, "", "K8/pc,CD/pc", 16, 4, 2); err != nil {
		t.Fatalf("runTrace: %v\noutput:\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"pairs:       16 (0 failed)", "spans:", "/measure:", "/infer:",
		"trace:       all pairs byte-identical",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "stitching:") {
		t.Errorf("a node's trace reported as stitched:\n%s", report)
	}
}

func TestRunTraceRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runTrace(&out, "http://x", "", "K8/pc", 4, 0, 1); err == nil {
		t.Error("-c 0 accepted; would hang forever")
	}
	if err := runTrace(&out, "http://x", "", "garbage", 4, 2, 1); err == nil {
		t.Error("bad mix accepted")
	}
}

// TestRunTraceCatchesPlantedFaults plants a fault between the client
// and a healthy front: the merged trace check must fail on each.
func TestRunTraceCatchesPlantedFaults(t *testing.T) {
	front, direct, _ := newClusterFleet(t, 2)
	for _, tc := range []struct {
		name    string
		edit    func([]byte) []byte
		wantErr string
	}{
		{"route span dropped", dropRouteSpan, "missing route/forward"},
		{"one byte changed outside the trace block", bumpDigit, "TRACE VIOLATION"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := runTrace(&out, behind(t, front, tc.edit), direct, "K8/pc", 8, 2, 2)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("runTrace error = %v, want one containing %q\n%s", err, tc.wantErr, out.String())
			}
		})
	}
}

// behind serves addr through a proxy that passes every answer body
// through edit.
func behind(t *testing.T, addr string, edit func([]byte) []byte) string {
	t.Helper()
	target, err := url.Parse(addr)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		body = edit(body)
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Set("Content-Length", strconv.Itoa(len(body)))
		return nil
	}
	srv := httptest.NewServer(proxy)
	t.Cleanup(srv.Close)
	return srv.URL
}

// dropRouteSpan removes the route span from a traced body's top-level
// trace block; any other body passes unchanged.
func dropRouteSpan(body []byte) []byte {
	var resp, trace map[string]json.RawMessage
	var spans []map[string]json.RawMessage
	if json.Unmarshal(body, &resp) != nil || json.Unmarshal(resp["trace"], &trace) != nil ||
		json.Unmarshal(trace["spans"], &spans) != nil {
		return body
	}
	spans = slices.DeleteFunc(spans, func(sp map[string]json.RawMessage) bool {
		return string(sp["name"]) == `"route"`
	})
	trace["spans"], _ = json.Marshal(spans)
	resp["trace"], _ = json.Marshal(trace)
	out, _ := json.Marshal(resp)
	return out
}

// bumpDigit changes one byte of a traced body outside its trace block:
// the first digit before the block goes up by one (a 9 down), so the
// body stays valid JSON. Any other body passes unchanged.
func bumpDigit(body []byte) []byte {
	end := bytes.Index(body, []byte(`"trace":{`))
	for i := 0; i < end; i++ {
		if b := body[i]; '0' <= b && b <= '9' {
			out := bytes.Clone(body)
			out[i] = b + 1
			if b == '9' {
				out[i] = '8'
			}
			return out
		}
	}
	return body
}
