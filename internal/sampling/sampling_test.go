package sampling

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernel"
)

func loopProgram(iters int64, base uint64) *isa.Program {
	b := isa.NewBuilder("profiled-loop", base)
	b.Emit(isa.ALU())
	b.Loop(iters, func(body *isa.Builder) {
		body.Emit(isa.ALU(), isa.ALU(), isa.Branch(0, true))
	})
	b.Emit(isa.Halt())
	return b.Build()
}

func TestNewValidation(t *testing.T) {
	k := kernel.New(cpu.Athlon64X2)
	if _, err := New(k, cpu.EventInstrRetired, 0); !errors.Is(err, ErrBadPeriod) {
		t.Errorf("zero period: %v", err)
	}
	if _, err := New(k, cpu.Event(99), 1000); err == nil {
		t.Error("bad event accepted")
	}
	if _, err := New(k, cpu.EventInstrRetired, 1000); err != nil {
		t.Errorf("valid profiler rejected: %v", err)
	}
}

// TestEstimateAccuracy: sampling a deterministic loop must estimate its
// instruction count within the period quantization.
func TestEstimateAccuracy(t *testing.T) {
	k := kernel.New(cpu.Athlon64X2)
	p, err := New(k, cpu.EventInstrRetired, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Run(loopProgram(1_000_000, 0x4000), 3)
	if err != nil {
		t.Fatal(err)
	}
	if prof.TrueCount < 3_000_000 {
		t.Fatalf("true count = %d, want >= 3e6", prof.TrueCount)
	}
	re := prof.RelativeError()
	if re < -0.02 || re > 0.05 {
		t.Errorf("relative error = %v, want within a few percent", re)
	}
	if len(prof.Samples) < 290 {
		t.Errorf("samples = %d, want ~300+", len(prof.Samples))
	}
}

// TestHotspotAttribution: nearly all samples of a tight loop must land
// on the loop body address.
func TestHotspotAttribution(t *testing.T) {
	k := kernel.New(cpu.Athlon64X2)
	p, err := New(k, cpu.EventInstrRetired, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	const base = 0x8000
	prog := loopProgram(500_000, base)
	prof, err := p.Run(prog, 7)
	if err != nil {
		t.Fatal(err)
	}
	hs := prof.Hotspots()
	if len(hs) == 0 {
		t.Fatal("no hotspots")
	}
	// The body starts after the 4-byte init instruction... its address
	// is the second instruction of the program.
	bodyAddr := prog.Addr(2)
	if hs[0].Addr != bodyAddr {
		t.Errorf("hottest address %#x, want loop body %#x", hs[0].Addr, bodyAddr)
	}
	if frac := float64(hs[0].Samples) / float64(len(prof.Samples)); frac < 0.95 {
		t.Errorf("loop body holds %.0f%% of samples, want >95%%", frac*100)
	}
}

// TestPerturbation: the overflow handlers execute kernel instructions,
// so a concurrent user+kernel count is inflated by roughly
// samples*HandlerCost — the cost of the sampling usage model.
func TestPerturbation(t *testing.T) {
	k := kernel.New(cpu.Athlon64X2)
	c := k.Core
	// Counter 1 observes user+kernel instructions while counter 0
	// drives the sampler.
	if err := c.PMU.Configure(1, cpu.CounterConfig{Event: cpu.EventInstrRetired, User: true, OS: true}); err != nil {
		t.Fatal(err)
	}
	c.PMU.Enable(0b10)

	p, err := New(k, cpu.EventInstrRetired, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Run(loopProgram(1_000_000, 0x4000), 11)
	if err != nil {
		t.Fatal(err)
	}
	observed, _ := c.PMU.Value(1)
	trueInstr := int64(1 + 3*1_000_000 + 1)
	excess := observed - trueInstr
	wantMin := int64(len(prof.Samples)) * (HandlerCost - 50)
	if excess < wantMin {
		t.Errorf("perturbation = %d kernel instructions, want >= %d (samples=%d)", excess, wantMin, len(prof.Samples))
	}
}

// TestShortPeriodLosesSamples: a period shorter than the handler's own
// instruction count makes the handler re-cross the period while the
// interrupt is masked, so crossings are dropped.
func TestShortPeriodLosesSamples(t *testing.T) {
	k := kernel.New(cpu.Athlon64X2)
	p, err := New(k, cpu.EventInstrRetired, HandlerCost/2)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Run(loopProgram(100_000, 0x4000), 13)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Lost == 0 {
		t.Error("expected lost crossings with a period below the handler cost")
	}
}

// TestDeterminism: identical seeds reproduce identical profiles.
func TestDeterminism(t *testing.T) {
	run := func() int {
		k := kernel.New(cpu.Core2Duo)
		p, err := New(k, cpu.EventInstrRetired, 7_000)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := p.Run(loopProgram(300_000, 0x4000), 99)
		if err != nil {
			t.Fatal(err)
		}
		return len(prof.Samples)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("profiles differ: %d vs %d samples", a, b)
	}
}

func TestCycleSampling(t *testing.T) {
	k := kernel.New(cpu.PentiumD)
	p, err := New(k, cpu.EventCoreCycles, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Run(loopProgram(1_000_000, 0x4000), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Samples) == 0 {
		t.Fatal("no cycle samples")
	}
	if re := prof.RelativeError(); re < -0.05 || re > 0.05 {
		t.Errorf("cycle estimate error = %v", re)
	}
}

// handlerSpy is a Runner that records the overflow handler installed
// for each profiled run, then interprets the program.
type handlerSpy struct{ handlers []*isa.Program }

func (s *handlerSpy) Name() string { return "spy" }

func (s *handlerSpy) RunProgram(c *cpu.Core, p *isa.Program) error {
	s.handlers = append(s.handlers, c.OverflowHandler)
	c.NestedRun = nil
	return c.Run(p)
}

// TestHandlerShared: profilers on different kernels install the same
// handler program, so it is built once per process and the compiled
// engine's cache finds it by pointer.
func TestHandlerShared(t *testing.T) {
	spy := &handlerSpy{}
	for _, m := range []*cpu.Model{cpu.Athlon64X2, cpu.PentiumD} {
		p, err := New(kernel.New(m), cpu.EventInstrRetired, 5_000)
		if err != nil {
			t.Fatal(err)
		}
		p.Runner = spy
		if _, err := p.Run(loopProgram(10_000, 0x4000), 1); err != nil {
			t.Fatal(err)
		}
	}
	if len(spy.handlers) != 2 || spy.handlers[0] == nil || spy.handlers[0] != spy.handlers[1] {
		t.Fatalf("installed handlers = %v, want one shared non-nil program", spy.handlers)
	}
}

// TestConcurrentProfilers runs profilers on separate kernels at once
// through one compiled engine: they share the handler program and the
// compile cache, and each profile must equal a serial run's.
func TestConcurrentProfilers(t *testing.T) {
	eng := engine.NewCompiled(nil)
	run := func(ev cpu.Event) (*Profile, error) {
		p, err := New(kernel.New(cpu.Core2Duo), ev, 3_000)
		if err != nil {
			return nil, err
		}
		p.Runner = eng
		return p.Run(loopProgram(200_000, 0x4000), 21)
	}
	events := []cpu.Event{cpu.EventInstrRetired, cpu.EventCoreCycles}
	want := make([]*Profile, len(events))
	for i, ev := range events {
		prof, err := run(ev)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = prof
	}
	const perEvent = 3
	var wg sync.WaitGroup
	for g := 0; g < perEvent*len(events); g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prof, err := run(events[i])
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(prof, want[i]) {
				t.Errorf("%s: concurrent profile differs from the serial one", events[i])
			}
		}(g % len(events))
	}
	wg.Wait()
}
