package api

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestTraceInfoFrom(t *testing.T) {
	if TraceInfoFrom(nil) != nil {
		t.Fatal("nil trace did not convert to nil")
	}
	tr := telemetry.New()
	tr.Start(telemetry.SpanEngineRun).Annotate("engine", "compiled").End()
	tr.Add(telemetry.SpanEncode, time.Microsecond)
	info := TraceInfoFrom(tr)
	if len(info.Spans) != 2 || info.Spans[0].Name != telemetry.SpanEngineRun {
		t.Fatalf("spans: %+v", info.Spans)
	}
	if info.Spans[0].Annotations["engine"] != "compiled" {
		t.Fatalf("annotations: %+v", info.Spans[0].Annotations)
	}
}

func TestTraceShape(t *testing.T) {
	var nilInfo *TraceInfo
	if nilInfo.Shape() != "" {
		t.Fatalf("nil shape %q", nilInfo.Shape())
	}
	a := &TraceInfo{Spans: []SpanInfo{{Name: "encode"}, {Name: "parse"}, {Name: "engine-run"}}}
	b := &TraceInfo{Spans: []SpanInfo{
		{Name: "parse", StartNs: 5, DurationNs: 9},
		{Name: "engine-run", DurationNs: 100},
		{Name: "encode"},
	}}
	// Same stage set, different order/durations: equal shapes.
	if a.Shape() != b.Shape() {
		t.Fatalf("shapes differ: %q vs %q", a.Shape(), b.Shape())
	}
	if a.Shape() != "[encode engine-run parse]" {
		t.Fatalf("shape %q", a.Shape())
	}
	// Different stage multiset: different shapes.
	c := &TraceInfo{Spans: []SpanInfo{{Name: "parse"}, {Name: "parse"}, {Name: "encode"}}}
	if a.Shape() == c.Shape() {
		t.Fatalf("multiset not distinguished: %q", c.Shape())
	}
}

func TestTraceShapeNestsBackend(t *testing.T) {
	backend := &TraceInfo{Spans: []SpanInfo{{Name: "parse"}, {Name: "engine-run"}}}
	raw, err := json.Marshal(backend)
	if err != nil {
		t.Fatal(err)
	}
	front := &TraceInfo{
		Origin:  "front-1",
		Spans:   []SpanInfo{{Name: "route"}, {Name: "forward"}},
		Backend: raw,
	}
	want := "[forward route]<[engine-run parse]>"
	if got := front.Shape(); got != want {
		t.Fatalf("stitched shape %q, want %q", got, want)
	}
	bad := &TraceInfo{Spans: []SpanInfo{{Name: "route"}}, Backend: json.RawMessage("{")}
	if got := bad.Shape(); got != "[route]<malformed>" {
		t.Fatalf("malformed backend shape %q", got)
	}
}

func TestStitchedTracePreservesBackendBytes(t *testing.T) {
	// The stitched block must carry the backend's trace verbatim: decode
	// the stitched JSON and the Backend field is byte-identical to what
	// the backend emitted.
	backendJSON := []byte(`{"coalesced":true,"spans":[{"name":"parse","startNs":1,"durationNs":2}]}`)
	front := &TraceInfo{
		Origin:  "front-1",
		Spans:   []SpanInfo{{Name: "route"}},
		Backend: json.RawMessage(backendJSON),
	}
	wire, err := json.Marshal(front)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceInfo
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Backend, backendJSON) {
		t.Fatalf("backend bytes changed:\n got %s\nwant %s", back.Backend, backendJSON)
	}
	if back.Origin != "front-1" {
		t.Fatalf("origin %q", back.Origin)
	}
}
