package engine_test

import (
	"reflect"
	"testing"

	"repro/internal/campaign/gen"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// The fuzz program generator lives in campaign/gen (gen.FromBytes), so
// generated program shapes are defined exactly once; this test keeps
// only the engine-conformance harness.

// fuzzRun executes the program on a fresh system through the given
// engine and returns the final state snapshot. arm, when non-nil,
// finishes the core's set-up just before the run.
func fuzzRun(t *testing.T, model *cpu.Model, p *isa.Program, seed uint64, r cpu.Runner, arm func(*cpu.Core)) enginetest.State {
	t.Helper()
	k := kernel.New(model)
	handler := isa.NewBuilder("fuzz-sys", 0x8000).
		ALUBlock(20).
		Emit(isa.RDMSR(0), isa.WRMSR(isa.MSREnable, 0b11), isa.SysRet()).
		Build()
	if err := k.RegisterSyscall(gen.FuzzSyscall, "fuzz", handler); err != nil {
		t.Fatal(err)
	}
	for slot, ev := range []cpu.Event{cpu.EventInstrRetired, cpu.EventCoreCycles} {
		if err := k.Core.PMU.Configure(slot, cpu.CounterConfig{Event: ev, User: true, OS: true}); err != nil {
			t.Fatal(err)
		}
	}
	k.Core.PMU.Enable(0b11)
	if arm != nil {
		arm(k.Core)
	}
	k.Core.SeedRun(seed)
	return enginetest.Snapshot(k.Core, r.RunProgram(k.Core, p))
}

// FuzzEngineConformance feeds randomized programs through both engines
// and requires bit-identical final machine state, including errors.
func FuzzEngineConformance(f *testing.F) {
	f.Add([]byte{0}, uint64(1))
	f.Add([]byte{4, 2, 9, 0, 255, 7, 6, 200, 180, 2, 10, 3, 8, 31, 5, 17}, uint64(7))
	f.Add([]byte{11, 255, 0, 0}, uint64(3))
	f.Add([]byte{6, 255, 255, 3, 7, 7, 7, 9, 1, 9, 3, 10, 2, 5, 0, 4, 4, 8, 200, 9}, uint64(99))

	models := []string{"PD", "CD", "K8"}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		var pick byte
		if len(data) > 0 {
			pick = data[len(data)-1]
		}
		m, err := cpu.ModelByTag(models[int(pick)%len(models)])
		if err != nil {
			t.Fatal(err)
		}
		p := gen.FromBytes(data)
		if err := p.Validate(true); err != nil {
			t.Skip("generator produced invalid program:", err)
		}
		si := fuzzRun(t, m, p, seed, engine.NewInterpreter(), nil)
		sc := fuzzRun(t, m, p, seed, engine.NewCompiled(nil), nil)
		if d := enginetest.Diff(si, sc); d != "" {
			t.Fatalf("engines diverge on %d-instruction program: %s", p.Len(), d)
		}
	})
}

// minFuzzPeriod is the smallest overflow period FuzzEngineSampling
// arms. Near the IRQ entry cost (220 × TransitionCycles) every handler
// crosses the period again and both engines crawl through an interrupt
// storm, which says nothing about either engine.
const minFuzzPeriod = 2_000

// fuzzPMIHandler is the PMU interrupt handler the sampling fuzz installs:
// a short straight-line body, which the compiled engine bulk-applies
// while the interrupt is masked.
var fuzzPMIHandler = isa.NewBuilder("fuzz-pmi", 0xc000).ALUBlock(40).Emit(isa.IRet()).Build()

// sample is one OnOverflow callback.
type sample struct {
	counter int
	addr    uint64
	mode    cpu.Mode
}

// FuzzEngineSampling arms counter 0 for overflow sampling, at a period
// and starting count drawn from the input, installs a small PMU
// handler, and requires both engines to deliver the same samples and
// leave bit-identical state.
func FuzzEngineSampling(f *testing.F) {
	f.Add([]byte{0}, uint64(1), uint16(0), uint16(1_990))
	f.Add([]byte{4, 2, 9, 0, 255, 7, 6, 200, 180, 2, 10, 3, 8, 31, 5, 17}, uint64(7), uint16(500), uint16(2_400))
	f.Add([]byte{6, 255, 255, 3, 7, 7, 7, 9, 1, 9, 3, 10, 2, 5, 0, 4, 4, 8, 200, 9}, uint64(99), uint16(0), uint16(1_500))
	f.Add([]byte{6, 250, 250, 2, 0, 1, 11, 3, 1, 6, 90, 200, 1, 0, 4}, uint64(5), uint16(3_000), uint16(4_990))

	models := []string{"PD", "CD", "K8"}
	events := []cpu.Event{cpu.EventInstrRetired, cpu.EventCoreCycles}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, extra, start uint16) {
		var pick byte
		if len(data) > 0 {
			pick = data[len(data)-1]
		}
		m, err := cpu.ModelByTag(models[int(pick)%len(models)])
		if err != nil {
			t.Fatal(err)
		}
		ev := events[int(pick/3)%len(events)]
		p := gen.FromBytes(data)
		if err := p.Validate(true); err != nil {
			t.Skip("generator produced invalid program:", err)
		}
		period := minFuzzPeriod + int64(extra)
		run := func(r cpu.Runner) (enginetest.State, []sample) {
			var samples []sample
			st := fuzzRun(t, m, p, seed, r, func(c *cpu.Core) {
				cfg := cpu.CounterConfig{Event: ev, User: true, OS: true, OverflowPeriod: period}
				if err := c.PMU.Configure(0, cfg); err != nil {
					t.Fatal(err)
				}
				if err := c.PMU.SetValue(0, int64(start)%period); err != nil {
					t.Fatal(err)
				}
				c.OverflowHandler = fuzzPMIHandler
				c.OnOverflow = func(counter int, addr uint64, mode cpu.Mode) {
					samples = append(samples, sample{counter, addr, mode})
				}
			})
			return st, samples
		}
		si, samplesI := run(engine.NewInterpreter())
		sc, samplesC := run(engine.NewCompiled(nil))
		if d := enginetest.Diff(si, sc); d != "" {
			t.Fatalf("engines diverge on %d-instruction program (%s, period %d): %s", p.Len(), ev, period, d)
		}
		if !reflect.DeepEqual(samplesI, samplesC) {
			t.Fatalf("samples diverge on %d-instruction program (%s, period %d):\ninterpreter: %v\ncompiled:    %v",
				p.Len(), ev, period, samplesI, samplesC)
		}
	})
}
