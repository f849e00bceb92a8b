package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/stack"
)

// benchSystem builds one measurement stack for benchmarking.
func benchSystem(b *testing.B, model, code string) *stack.System {
	b.Helper()
	m, err := cpu.ModelByTag(model)
	if err != nil {
		b.Fatal(err)
	}
	s, err := stack.New(m, code, stack.DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchRun executes a prebuilt program through the given engine on a
// prebuilt system, once per iteration. This isolates engine execution —
// program construction and measurement-infrastructure setup are
// identical for both engines and excluded.
func benchRun(b *testing.B, s *stack.System, r cpu.Runner, p *isa.Program) {
	b.Helper()
	c := s.Kernel.Core
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		c.SeedRun(7)
		if err := r.RunProgram(c, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineCompiledVsInterp pairs the two engines on the plain
// loop and array benchmark programs. The compiled engine's acceptance
// bar is a >=5x ns/op improvement; CI records the pair in its bench
// artifact.
func BenchmarkEngineCompiledVsInterp(b *testing.B) {
	workloads := []struct {
		name string
		prog *isa.Program
	}{
		{"loop1M", core.LoopBenchmark(1_000_000).RawProgram()},
		{"array1M", core.ArrayBenchmark(1_000_000).RawProgram()},
	}
	for _, w := range workloads {
		s := benchSystem(b, "PD", "pc")
		b.Run(w.name+"/interp", func(b *testing.B) {
			benchRun(b, s, engine.NewInterpreter(), w.prog)
		})
		b.Run(w.name+"/compiled", func(b *testing.B) {
			benchRun(b, s, engine.NewCompiled(nil), w.prog)
		})
	}
}

// BenchmarkEngineMeasurePath pairs the engines on the full per-request
// measurement path (harness construction, counter configuration,
// analysis) — the end-to-end view, where per-request infrastructure
// work common to both engines dilutes the engine-only ratio. The
// unprefixed pair measures a 1M-iteration loop; the short/ pair
// measures the shape of a small service request (array:500 on PLpc,
// pattern ro), where the run starts cold and the cold-fetch state and
// the engine's per-run setup weigh most.
func BenchmarkEngineMeasurePath(b *testing.B) {
	cases := []struct {
		prefix, model, stack string
		req                  core.Request
	}{
		{"", "PD", "pc", core.Request{Bench: core.LoopBenchmark(1_000_000), Pattern: core.StartRead,
			Mode: core.ModeUserKernel, Seed: 7}},
		{"short/", "CD", "PLpc", core.Request{Bench: core.ArrayBenchmark(500), Pattern: core.ReadStop,
			Mode: core.ModeUser, Seed: 7}},
	}
	for _, tc := range cases {
		for _, eng := range []cpu.Runner{engine.NewInterpreter(), engine.NewCompiled(nil)} {
			b.Run(tc.prefix+eng.Name(), func(b *testing.B) {
				m, err := cpu.ModelByTag(tc.model)
				if err != nil {
					b.Fatal(err)
				}
				opts := stack.DefaultOptions
				opts.Engine = eng
				s, err := stack.New(m, tc.stack, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Reset()
					if _, err := s.Measure(tc.req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
