// Package sampling implements statistical profiling on counter overflow
// interrupts — the second performance-counter usage model whose accuracy
// Moore's work (cited in the paper's Section 9) contrasts with the
// counting model this study focuses on.
//
// A counter is programmed with an overflow period P; every P events the
// PMU raises an interrupt and the profiler attributes one sample to the
// code address executing at that moment. Multiplying a region's sample
// count by P estimates its event count. Two accuracy questions arise,
// and both are measurable here:
//
//   - estimation error: how far sample*period lands from the true count
//     (quantization and phase effects), and
//   - perturbation: the overflow handler's own instructions inflate any
//     concurrently running user+kernel measurement.
package sampling

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// HandlerCost is the kernel instruction count of the PMU interrupt
// handler (sample capture, buffer write, APIC acknowledgment). Exported
// because it quantifies the sampling model's perturbation — one
// HandlerCost of kernel instructions per recorded sample lands in any
// concurrently running user+kernel count — which docs/ACCURACY.md
// documents as the cost of tightening the quantization bracket.
const HandlerCost = 420

// overflowHandler is the PMU interrupt handler every profiler installs.
// It is built once per process and never modified, so all profilers
// share one pointer, which the compiled engine's cache recognizes
// without hashing (as kernel.Shared does for the tick handler).
var overflowHandler = sync.OnceValue(func() *isa.Program {
	hb := isa.NewBuilder("pmu_overflow", 0xffff_c000_0000)
	hb.ALUBlock(HandlerCost)
	hb.Emit(isa.IRet())
	return hb.Build()
})

// samplingCounter is the programmable counter index the profiler uses.
// Profilers conventionally claim the last counter so event-counting
// users keep the low indices.
const samplingCounter = 0

// Sample is one overflow event attributed to a code address.
type Sample struct {
	Addr uint64
	Mode cpu.Mode
}

// Profile is the outcome of a profiling run.
type Profile struct {
	// Period is the sampling period in events.
	Period int64
	// Samples lists every recorded sample in order.
	Samples []Sample
	// Lost counts overflow crossings dropped while the PMU interrupt
	// was masked.
	Lost int64
	// TrueCount is the exact number of events that occurred while the
	// profiled counter was enabled (ground truth from the simulator).
	TrueCount int64
}

// Estimate returns the profile's event-count estimate: samples times
// period.
func (p *Profile) Estimate() int64 {
	return int64(len(p.Samples)) * p.Period
}

// RelativeError returns (estimate - true) / true; 0 when the true count
// is zero.
func (p *Profile) RelativeError() float64 {
	if p.TrueCount == 0 {
		return 0
	}
	return float64(p.Estimate()-p.TrueCount) / float64(p.TrueCount)
}

// Hotspots returns per-address sample counts, densest first.
func (p *Profile) Hotspots() []Hotspot {
	byAddr := map[uint64]int{}
	for _, s := range p.Samples {
		byAddr[s.Addr]++
	}
	out := make([]Hotspot, 0, len(byAddr))
	for a, n := range byAddr {
		out = append(out, Hotspot{Addr: a, Samples: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// Hotspot is one address bucket of a profile.
type Hotspot struct {
	Addr    uint64
	Samples int
}

// Profiler drives sampling runs on a kernel.
type Profiler struct {
	k      *kernel.Kernel
	event  cpu.Event
	period int64

	// Runner is the execution engine for profiled runs; nil uses the
	// core's interpreter directly. The compiled engine steps every
	// instruction of the profiled program, so overflow interrupts fire
	// at exact crossings, but bulk-applies the overflow handler and
	// anything nested in it, where the PMU interrupt is masked.
	Runner cpu.Runner
}

// ErrBadPeriod reports a non-positive sampling period.
var ErrBadPeriod = errors.New("sampling: period must be positive")

// New returns a profiler for the given event and overflow period.
func New(k *kernel.Kernel, event cpu.Event, period int64) (*Profiler, error) {
	if period <= 0 {
		return nil, ErrBadPeriod
	}
	if !cpu.SupportsEvent(k.Model().Arch, event) {
		return nil, fmt.Errorf("sampling: event %s not supported on %s", event, k.Model().Arch)
	}
	return &Profiler{k: k, event: event, period: period}, nil
}

// Run profiles one program execution: the sampling counter is
// programmed with the profiler's event and period, the PMU interrupt
// handler is installed, and the program runs to completion.
func (p *Profiler) Run(prog *isa.Program, seed uint64) (*Profile, error) {
	c := p.k.Core
	if err := c.PMU.Configure(samplingCounter, cpu.CounterConfig{
		Event: p.event, User: true, OS: true, OverflowPeriod: p.period,
	}); err != nil {
		return nil, err
	}
	c.PMU.Reset(1 << samplingCounter)
	c.PMU.Enable(1 << samplingCounter)

	prof := &Profile{Period: p.period}
	c.OnOverflow = func(ctr int, addr uint64, mode cpu.Mode) {
		if ctr == samplingCounter {
			prof.Samples = append(prof.Samples, Sample{Addr: addr, Mode: mode})
		}
	}
	c.OverflowHandler = overflowHandler()
	defer func() {
		c.OnOverflow = nil
		c.OverflowHandler = nil
		c.PMU.Disable(1 << samplingCounter)
	}()

	c.SeedRun(seed)
	if err := p.runProg(c, prog); err != nil {
		return nil, err
	}
	v, err := c.PMU.Value(samplingCounter)
	if err != nil {
		return nil, err
	}
	prof.TrueCount = v
	prof.Lost = c.OverflowsLost
	return prof, nil
}

// runProg executes the profiled program on the configured engine.
func (p *Profiler) runProg(c *cpu.Core, prog *isa.Program) error {
	if p.Runner != nil {
		return p.Runner.RunProgram(c, prog)
	}
	c.NestedRun = nil
	return c.Run(prog)
}
