package engine_test

import (
	"testing"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/stack"
)

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestWarmRunAllocatesNothing pins the compiled engine's warm path:
// once every program a run meets is compiled, RunProgram allocates
// nothing — no memo, no warm sets, no nested-run hook. Each harness
// makes the infrastructure's syscalls and the long ones span timer
// ticks, so the runs meet kernel handlers through the core's NestedRun.
func TestWarmRunAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled run states")
	}
	chase, err := api.ParseBench("gen:v1:chase:3:16")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, model, stack string
		bench              *core.Benchmark
	}{
		{"loop1M/PD/pc", "PD", "pc", core.LoopBenchmark(1_000_000)},
		{"array1M/K8/pm", "K8", "pm", core.ArrayBenchmark(1_000_000)},
		{"array500/CD/PLpc", "CD", "PLpc", core.ArrayBenchmark(500)},
		{"chase/PD/PHpm", "PD", "PHpm", chase},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := cpu.ModelByTag(tc.model)
			if err != nil {
				t.Fatal(err)
			}
			s, err := stack.New(m, tc.stack, stack.DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			req := core.Request{Bench: tc.bench, Pattern: core.StartRead, Mode: core.ModeUserKernel,
				Events: []cpu.Event{cpu.EventInstrRetired, cpu.EventICacheMiss}}
			// Measure once to program the counters, then build the harness
			// and run it once so every program it meets is compiled.
			if _, err := s.Measure(req); err != nil {
				t.Fatal(err)
			}
			prog, err := core.BuildHarness(s.Infra, req)
			if err != nil {
				t.Fatal(err)
			}
			e := engine.NewCompiled(nil)
			c := s.Kernel.Core
			c.SeedRun(7)
			if err := e.RunProgram(c, prog); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := e.RunProgram(c, prog); err != nil {
					t.Fatal(err)
				}
			})
			if c.TimerDeliveries == 0 && tc.bench.Iterations >= 1_000_000 {
				t.Errorf("no tick delivered: the run never met the tick handler")
			}
			if allocs != 0 {
				t.Errorf("warm compiled RunProgram allocates %.1f times per run, want 0", allocs)
			}
		})
	}
}
