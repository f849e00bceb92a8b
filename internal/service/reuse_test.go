package service

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/api"
)

// reuseSequence is one worker per shard's worth of varied traffic:
// consecutive requests change stack, and each shard's worker meets a
// 1 → 2 → 1 counter-count cycle for every pattern and benchmark, so it
// keeps returning to harnesses and handler sets it built before.
func reuseSequence() []api.MeasureRequest {
	events := [][]string{{"INSTR_RETIRED"}, {"INSTR_RETIRED", "CPU_CLK_UNHALTED"}, {"INSTR_RETIRED"}}
	var seq []api.MeasureRequest
	for _, bench := range []string{"null", "loop:1000", "array:500", "gen:v1:mix:5:3"} {
		for _, pattern := range []string{"ar", "ao", "rr", "ro"} {
			for i, ev := range events {
				for _, st := range []string{"pc", "PLpc", "PHpm", "pm"} {
					if strings.HasPrefix(st, "PH") && (pattern == "rr" || pattern == "ro") {
						continue // PAPI high level resets on read
					}
					seq = append(seq, api.MeasureRequest{
						Processor: "PD", Stack: st, Bench: bench, Pattern: pattern,
						Events: ev, Runs: 3, Seed: uint64(1 + i), Calibrate: true,
					})
				}
			}
		}
	}
	return seq
}

// TestReusedWorkerMatchesFresh pins the reuse contract: a worker reuses
// the kernel handlers and harnesses it has built, and a reused worker
// answers every request byte-identically to a fresh service, in either
// order of the same traffic.
func TestReusedWorkerMatchesFresh(t *testing.T) {
	seq := reuseSequence()
	fresh := make(map[string]string)
	for _, req := range seq {
		norm, err := req.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh[norm.Key()]; !ok {
			fresh[norm.Key()] = respBytes(t, measure(t, New(Config{WorkersPerShard: 1}), req))
		}
	}
	for name, order := range map[string][]api.MeasureRequest{"forward": seq, "reverse": reversed(seq)} {
		s := New(Config{WorkersPerShard: 1})
		for _, req := range order {
			norm, _ := req.Normalized()
			if got := respBytes(t, measure(t, s, req)); got != fresh[norm.Key()] {
				t.Fatalf("%s order: reused worker diverges from a fresh service on %s\ngot  %s\nwant %s",
					name, norm.Key(), got, fresh[norm.Key()])
			}
		}
	}
}

func reversed(seq []api.MeasureRequest) []api.MeasureRequest {
	out := slices.Clone(seq)
	slices.Reverse(out)
	return out
}

// TestWarmMeasureAllocations bounds the allocations of a warm,
// calibrated small-benchmark request: a worker that rebuilt its kernel
// handlers or harness on every run would allocate several times more.
func TestWarmMeasureAllocations(t *testing.T) {
	const maxAllocs = 150
	s := New(Config{WorkersPerShard: 1})
	ctx := context.Background()
	req := api.MeasureRequest{Processor: "CD", Stack: "PLpc", Bench: "array:500", Pattern: "ro", Runs: 3, Calibrate: true}
	measure(t, s, req)
	allocs := testing.AllocsPerRun(50, func() {
		req.Seed++ // a fresh seed per call, so every call executes
		if _, err := s.Measure(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per warm request", allocs)
	if allocs > maxAllocs {
		t.Errorf("warm calibrated Measure allocates %.0f times per request, want at most %d", allocs, maxAllocs)
	}
}
