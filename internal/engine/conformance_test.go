package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/campaign/gen"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/mpx"
	"repro/internal/sampling"
	"repro/internal/stack"
)

// twin builds two identical systems pinned to the interpreter and the
// compiled engine respectively.
func twin(t *testing.T, model string, code string, opts stack.Options) (interp, compiled *stack.System) {
	t.Helper()
	m, err := cpu.ModelByTag(model)
	if err != nil {
		t.Fatal(err)
	}
	oi := opts
	oi.Engine = engine.NewInterpreter()
	si, err := stack.New(m, code, oi)
	if err != nil {
		t.Fatal(err)
	}
	oc := opts
	oc.Engine = engine.NewCompiled(nil)
	sc, err := stack.New(m, code, oc)
	if err != nil {
		t.Fatal(err)
	}
	return si, sc
}

// measurePair runs one request on both systems and asserts identical
// measurements and identical final machine state.
func measurePair(t *testing.T, si, sc *stack.System, req core.Request) {
	t.Helper()
	si.Reset()
	sc.Reset()
	mi, errI := si.Measure(req)
	mc, errC := sc.Measure(req)
	if (errI == nil) != (errC == nil) || (errI != nil && errI.Error() != errC.Error()) {
		t.Fatalf("error mismatch: interpreter=%v compiled=%v", errI, errC)
	}
	if errI == nil && !reflect.DeepEqual(mi, mc) {
		t.Fatalf("measurement mismatch:\ninterpreter: %+v\ncompiled:    %+v", mi, mc)
	}
	d := enginetest.Diff(
		enginetest.Snapshot(si.Kernel.Core, errI),
		enginetest.Snapshot(sc.Kernel.Core, errC),
	)
	if d != "" {
		t.Fatalf("state mismatch: %s", d)
	}
}

// TestConformanceCountingMatrix runs the benchmark × pattern × model ×
// stack × mode counting matrix through both engines.
func TestConformanceCountingMatrix(t *testing.T) {
	models := []string{"PD", "CD", "K8"}
	stacks := []string{"pc", "pm", "PLpc", "PHpm"}
	benches := map[string]func() *core.Benchmark{
		"null":     core.NullBenchmark,
		"loop5k":   func() *core.Benchmark { return core.LoopBenchmark(5000) },
		"array512": func() *core.Benchmark { return core.ArrayBenchmark(512) },
	}
	patterns := []core.Pattern{core.StartRead, core.StartStop, core.ReadRead, core.ReadStop}
	modes := []core.MeasureMode{core.ModeUser, core.ModeUserKernel, core.ModeKernel}

	for _, model := range models {
		for _, code := range stacks {
			si, sc := twin(t, model, code, stack.DefaultOptions)
			for bname, bench := range benches {
				for _, pat := range patterns {
					if !pat.SupportedBy(si.Infra) {
						continue
					}
					for _, mode := range modes {
						name := fmt.Sprintf("%s/%s/%s/%s/%s", model, code, bname, pat.Code(), mode)
						t.Run(name, func(t *testing.T) {
							measurePair(t, si, sc, core.Request{
								Bench: bench(), Pattern: pat, Mode: mode, Seed: 7,
							})
						})
					}
				}
			}
		}
	}
}

// TestConformanceLongRun crosses many timer ticks, exercising tick
// skew, handler acceleration, and bulk-versus-boundary interleaving.
func TestConformanceLongRun(t *testing.T) {
	for _, model := range []string{"PD", "CD", "K8"} {
		t.Run(model, func(t *testing.T) {
			si, sc := twin(t, model, "pc", stack.DefaultOptions)
			for seed := uint64(1); seed <= 3; seed++ {
				measurePair(t, si, sc, core.Request{
					Bench: core.LoopBenchmark(2_000_000), Pattern: core.StartRead,
					Mode: core.ModeUserKernel, Seed: seed,
				})
			}
		})
	}
}

// TestConformanceOndemandGovernor varies the clock frequency mid-run:
// FreqScale-dependent costs must stay exact on both engines.
func TestConformanceOndemandGovernor(t *testing.T) {
	opts := stack.DefaultOptions
	opts.Governor = kernel.Ondemand
	for _, model := range []string{"PD", "K8"} {
		t.Run(model, func(t *testing.T) {
			si, sc := twin(t, model, "pm", opts)
			measurePair(t, si, sc, core.Request{
				Bench: core.ArrayBenchmark(4096), Pattern: core.StartStop,
				Mode: core.ModeUser, Seed: 11,
			})
		})
	}
}

// samplingPeriod is the overflow period of the sampling conformance
// runs: short enough that the PMU handler takes a large share of a run,
// so timer ticks land inside it, and far above the IRQ entry cost (see
// FuzzEngineSampling). Every model's tick period in cycles is a
// multiple of 2,000, which would lock cycle crossings to one phase of
// the tick, so that no tick ever landed in a handler.
const samplingPeriod = 2_003

// spanTicks returns a generated benchmark's body repeated, each copy
// followed by a plain loop, so the run spans several timer ticks: one
// copy runs for only a few thousand cycles, a tick period for millions.
func spanTicks(t *testing.T, class gen.Class) *isa.Program {
	t.Helper()
	gp, err := gen.New(class, 1, gen.MaxScale)
	if err != nil {
		t.Fatal(err)
	}
	bm, filler := gp.Benchmark(), core.LoopBenchmark(100_000)
	b := isa.NewBuilder(bm.Name, 0x4000)
	for i := 0; i < 16; i++ {
		bm.Emit(b)
		filler.Emit(b)
	}
	b.Emit(isa.Halt())
	return b.Build()
}

// tick is what a tick listener observes of one timer tick: the cycle
// it completed at, and whether it landed inside the PMU handler, where
// the PMU interrupt is masked.
type tick struct {
	cycles float64
	masked bool
}

// profile runs one sampling profile on s through r and records every
// timer tick it delivers.
func profile(t *testing.T, s *stack.System, r cpu.Runner, ev cpu.Event, prog *isa.Program) (*sampling.Profile, []tick, error) {
	t.Helper()
	s.Reset()
	var ticks []tick
	c := s.Kernel.Core
	id := s.Kernel.AddTickListener(func() {
		ticks = append(ticks, tick{cycles: c.Cycles, masked: !c.OverflowLive()})
	})
	defer s.Kernel.RemoveTickListener(id)
	p, err := sampling.New(s.Kernel, ev, samplingPeriod)
	if err != nil {
		t.Fatal(err)
	}
	p.Runner = r
	prof, err := p.Run(prog, 7)
	return prof, ticks, err
}

// TestConformanceSampling profiles through both engines. The compiled
// engine steps the sampled program, so overflow interrupts fire at
// exact crossings, and bulk-applies the PMU handler, where the
// interrupt is masked, and the tick handlers that land inside it.
// Profiles, the tick schedule, and machine state must all be
// identical, and the matrix must put ticks inside PMU handlers.
func TestConformanceSampling(t *testing.T) {
	type sampled struct {
		name string
		prog *isa.Program
	}
	programs := []sampled{
		{"loop", core.LoopBenchmark(1_000_000).RawProgram()},
		{"array", core.ArrayBenchmark(500_000).RawProgram()},
	}
	for _, class := range []gen.Class{gen.ClassMix, gen.ClassBranch, gen.ClassProbe} {
		programs = append(programs, sampled{string(class), spanTicks(t, class)})
	}
	models := []string{"PD", "CD", "K8"}
	events := []cpu.Event{cpu.EventInstrRetired, cpu.EventCoreCycles}
	ran, masked := 0, 0
	for _, model := range models {
		t.Run(model, func(t *testing.T) {
			si, sc := twin(t, model, "pc", stack.DefaultOptions)
			for _, pr := range programs {
				for _, ev := range events {
					t.Run(fmt.Sprintf("%s/%s", pr.name, ev), func(t *testing.T) {
						pi, ti, errI := profile(t, si, engine.NewInterpreter(), ev, pr.prog)
						pc, tc, errC := profile(t, sc, engine.NewCompiled(nil), ev, pr.prog)
						if (errI == nil) != (errC == nil) {
							t.Fatalf("error mismatch: %v vs %v", errI, errC)
						}
						if !reflect.DeepEqual(pi, pc) {
							t.Fatalf("profile mismatch:\ninterpreter: %+v\ncompiled:    %+v", pi, pc)
						}
						if !reflect.DeepEqual(ti, tc) {
							t.Fatalf("tick schedule mismatch:\ninterpreter: %v\ncompiled:    %v", ti, tc)
						}
						d := enginetest.Diff(
							enginetest.Snapshot(si.Kernel.Core, errI),
							enginetest.Snapshot(sc.Kernel.Core, errC),
						)
						if d != "" {
							t.Fatalf("state mismatch: %s", d)
						}
						ran++
						for _, tk := range ti {
							if tk.masked {
								masked++
							}
						}
					})
				}
			}
		})
	}
	// Checked only when the whole matrix ran, so a -run filter that
	// selects a few subtests cannot trip it.
	if ran == len(models)*len(programs)*len(events) && masked == 0 {
		t.Error("no tick landed inside a PMU handler: the runs are too short to reach the masked handler with the timer live")
	}
}

// TestConformanceMultiplexing rotates counter groups on timer ticks
// through both engines and compares the interpolated estimates.
func TestConformanceMultiplexing(t *testing.T) {
	for _, model := range []string{"CD", "K8"} {
		t.Run(model, func(t *testing.T) {
			si, sc := twin(t, model, "pm", stack.DefaultOptions)
			events := []cpu.Event{cpu.EventInstrRetired, cpu.EventCoreCycles}
			run := func(s *stack.System, r cpu.Runner) ([]mpx.Estimate, error) {
				s.Reset()
				m, err := mpx.New(s.Kernel, 1, events)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				m.Runner = r
				return m.Run(core.LoopBenchmark(3_000_000).RawProgram(), 13)
			}
			ei, errI := run(si, engine.NewInterpreter())
			ec, errC := run(sc, engine.NewCompiled(nil))
			if (errI == nil) != (errC == nil) {
				t.Fatalf("error mismatch: %v vs %v", errI, errC)
			}
			if !reflect.DeepEqual(ei, ec) {
				t.Fatalf("estimate mismatch:\ninterpreter: %+v\ncompiled:    %+v", ei, ec)
			}
			d := enginetest.Diff(
				enginetest.Snapshot(si.Kernel.Core, errI),
				enginetest.Snapshot(sc.Kernel.Core, errC),
			)
			if d != "" {
				t.Fatalf("state mismatch: %s", d)
			}
		})
	}
}
