package api

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/campaign/gen"
	"repro/internal/core"
)

func TestNormalizedDefaults(t *testing.T) {
	norm, err := MeasureRequest{Processor: "K8", Stack: "pc"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := MeasureRequest{
		Processor: "K8", Stack: "pc", Bench: "null", Pattern: "ar",
		Mode: "user", Events: []string{"INSTR_RETIRED"}, Runs: 1, Seed: 1,
	}
	if norm.Key() != want.Key() {
		t.Errorf("normalized = %+v, want %+v", norm, want)
	}
}

func TestNormalizedCanonicalizes(t *testing.T) {
	a, err := MeasureRequest{Processor: "CD", Stack: "pm", Bench: "loop:500", Mode: "uk"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureRequest{Processor: "CD", Stack: "pm", Bench: "loop:500", Mode: "user+kernel", Runs: 1, Seed: 1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("equivalent requests normalize to different keys:\n%s\n%s", a.Key(), b.Key())
	}
}

func TestNormalizedRejects(t *testing.T) {
	bad := []MeasureRequest{
		{Processor: "Z80", Stack: "pc"},
		{Processor: "K8", Stack: "nope"},
		{Processor: "K8", Stack: "pc", Bench: "loop:-1"},
		{Processor: "K8", Stack: "pc", Bench: "loop:999999999999"},
		{Processor: "K8", Stack: "pc", Pattern: "xx"},
		{Processor: "K8", Stack: "pc", Mode: "ring3"},
		{Processor: "K8", Stack: "pc", Events: []string{"UNICORNS"}},
		// CD has only 2 programmable counters.
		{Processor: "CD", Stack: "pc", Events: []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED", "BR_MISP_RETIRED"}},
		{Processor: "K8", Stack: "pc", Opt: 4},
		{Processor: "K8", Stack: "pc", Runs: MaxRuns + 1},
	}
	for _, req := range bad {
		if _, err := req.Normalized(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Normalized(%+v) err = %v, want ErrBadRequest", req, err)
		}
	}
}

func TestShardAndCalibrationKeys(t *testing.T) {
	a, _ := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:10"}.Normalized()
	b, _ := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:999", Runs: 7, Seed: 5}.Normalized()
	if a.ShardKey() != b.ShardKey() {
		t.Errorf("same configuration, different shards: %s vs %s", a.ShardKey(), b.ShardKey())
	}
	if a.CalibrationKey() != b.CalibrationKey() {
		t.Errorf("benchmark leaked into calibration key: %s vs %s", a.CalibrationKey(), b.CalibrationKey())
	}
	c, _ := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:10", NoTSC: true}.Normalized()
	if a.ShardKey() == c.ShardKey() {
		t.Error("TSC setting not part of the shard key")
	}
	// On perfmon-backed stacks NoTSC is meaningless and must normalize
	// away, or equivalent requests would split across duplicate shards.
	pm1, _ := MeasureRequest{Processor: "K8", Stack: "pm", Bench: "loop:10"}.Normalized()
	pm2, _ := MeasureRequest{Processor: "K8", Stack: "pm", Bench: "loop:10", NoTSC: true}.Normalized()
	if pm1.Key() != pm2.Key() || pm1.ShardKey() != pm2.ShardKey() {
		t.Error("NoTSC not canonicalized away for a perfmon-backed stack")
	}
	d, _ := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "loop:10", Pattern: "rr"}.Normalized()
	if a.CalibrationKey() == d.CalibrationKey() {
		t.Error("pattern not part of the calibration key")
	}
}

func TestBuildRoundTrip(t *testing.T) {
	norm, err := MeasureRequest{
		Processor: "PD", Stack: "PLpc", Bench: "array:64", Pattern: "ro",
		Mode: "kernel", Events: []string{"CPU_CLK_UNHALTED", "INSTR_RETIRED"}, Opt: 3,
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	creq, err := norm.Build()
	if err != nil {
		t.Fatal(err)
	}
	if creq.Bench.Name != "array" || creq.Bench.Iterations != 64 {
		t.Errorf("bench = %+v", creq.Bench)
	}
	if creq.Pattern != core.ReadStop || creq.Mode != core.ModeKernel {
		t.Errorf("pattern/mode = %v/%v", creq.Pattern, creq.Mode)
	}
	if len(creq.Events) != 2 || int(creq.Opt) != 3 {
		t.Errorf("events/opt = %v/%v", creq.Events, creq.Opt)
	}
}

// TestNormalizedGenSpec: a generated benchmark normalizes from its spec
// alone — scale made explicit, bad specs rejected with the generator's
// message — and builds into the program the spec names.
func TestNormalizedGenSpec(t *testing.T) {
	norm, err := MeasureRequest{Processor: "K8", Stack: "pc", Bench: "gen:v1:chase:0042"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Bench != "gen:v1:chase:42:3" {
		t.Errorf("canonical bench = %q, want gen:v1:chase:42:3", norm.Bench)
	}
	creq, err := norm.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Parse(norm.Bench)
	if err != nil {
		t.Fatal(err)
	}
	if creq.Bench.Name != norm.Bench || creq.Bench.ExpectedInstr != p.ExpectedInstr() {
		t.Errorf("built bench %s expecting %d, want %s expecting %d",
			creq.Bench.Name, creq.Bench.ExpectedInstr, norm.Bench, p.ExpectedInstr())
	}
	_, err = MeasureRequest{Processor: "K8", Stack: "pc", Bench: "gen:v1:chase:1:65"}.Normalized()
	if !errors.Is(err, ErrBadRequest) || !strings.Contains(err.Error(), "api: gen: scale 65 out of range [1,64]") {
		t.Errorf("out-of-range scale: err = %v", err)
	}
}

func TestParseBench(t *testing.T) {
	b, err := ParseBench("loop:100")
	if err != nil || b.ExpectedInstr != 301 {
		t.Errorf("loop:100 = %+v, %v", b, err)
	}
	if _, err := ParseBench("fib:10"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
