package core

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/xrand"
)

// Request describes one measurement: what to run, how to access the
// counters, and what to count.
type Request struct {
	// Bench is the micro-benchmark to measure.
	Bench *Benchmark
	// Pattern is the counter access pattern (Table 2).
	Pattern Pattern
	// Mode selects user, user+kernel, or kernel-only counting.
	Mode MeasureMode
	// Events are the events to count, one counter each; when empty, a
	// single retired-instruction counter is used.
	Events []cpu.Event
	// Opt is the harness compilation level (Section 3.6).
	Opt compiler.OptLevel
	// Seed individualizes the run (timer phase, path jitter). Use
	// different seeds for repeated runs of the same configuration.
	Seed uint64
	// Runner is the execution engine driving the harness run; nil
	// selects the process default (the compiled engine). Both engines
	// produce byte-identical measurements — see internal/engine.
	Runner cpu.Runner
}

// withDefaults fills unset fields.
func (r Request) withDefaults() Request {
	if len(r.Events) == 0 {
		r.Events = []cpu.Event{cpu.EventInstrRetired}
	}
	return r
}

// Measurement is the outcome of one measured benchmark run.
type Measurement struct {
	// Deltas is c1-c0 per configured counter, in Events order.
	Deltas []int64
	// Expected is the benchmark's analytical retired-instruction count.
	Expected int64
	// Iterations echoes the benchmark's loop trip count.
	Iterations int64
	// TimerTicks is the number of timer interrupts delivered during the
	// whole harness run (not only the window).
	TimerTicks int
	// Cycles is the total harness run length in cycles.
	Cycles float64
}

// Error returns the instruction-count measurement error of counter i:
// the counted instructions minus the analytical ground truth. For
// kernel-only measurements the expected count is zero, since the
// benchmarks never enter the kernel (Figure 9's premise).
func (m *Measurement) Error(i int, mode MeasureMode) int64 {
	if mode == ModeKernel {
		return m.Deltas[i]
	}
	return m.Deltas[i] - m.Expected
}

// Measure performs one measurement of req on the infrastructure bound
// to kernel k. It configures the counters, assembles the harness
// program (glue + pattern calls + benchmark), runs it, and extracts the
// per-counter deltas from the capture log. Its memo lives for this one
// call; a caller that measures repeatedly keeps a Harnesses memo and
// calls its Measure instead.
func Measure(k *kernel.Kernel, infra Infrastructure, req Request) (*Measurement, error) {
	var h Harnesses
	return h.Measure(k, infra, req)
}

// Measure is core.Measure with the harness taken from the memo.
func (h *Harnesses) Measure(k *kernel.Kernel, infra Infrastructure, req Request) (*Measurement, error) {
	req = req.withDefaults()
	if !req.Pattern.SupportedBy(infra) {
		return nil, &ErrUnsupportedPattern{Pattern: req.Pattern, Infra: infra.Name()}
	}

	specs := make([]CounterSpec, len(req.Events))
	for i, ev := range req.Events {
		specs[i] = Spec(ev, req.Mode)
	}
	if err := infra.Setup(specs); err != nil {
		return nil, err
	}

	prog, err := h.harness(infra, req)
	if err != nil {
		return nil, err
	}

	runner := req.Runner
	if runner == nil {
		runner = engine.Default()
	}
	k.Core.SeedRun(xrand.Mix(req.Seed, uint64(req.Pattern), uint64(req.Opt)))
	if err := runner.RunProgram(k.Core, prog); err != nil {
		return nil, fmt.Errorf("core: harness run failed: %w", err)
	}
	return extract(k.Core, infra.NumCounters(), req)
}

// HarnessMemoSize is the number of harnesses a Harnesses memo holds.
// A service worker on the small-benchmark mix meets about a dozen
// shapes, so sixteen hold its steady state; a stream of distinct
// generated programs reuses a harness only within one request.
const HarnessMemoSize = 16

// Harnesses is one worker's memo of built harness programs, so that
// repeated runs of a shape reuse one program: the compiled engine then
// finds it by pointer, and a warm run builds, validates and hashes no
// program. It holds HarnessMemoSize harnesses and evicts the least
// recently used. The zero value is ready to use.
//
// A memo is not safe for concurrent use: a worker owns its memo as it
// owns its kernel.
type Harnesses struct {
	slots [HarnessMemoSize]harnessSlot
	clock uint64
}

// harnessKey is every input BuildHarness reads: the infrastructure (by
// identity), its counter count, the pattern, the opt level, and the
// benchmark, identified by name and size (see Benchmark).
type harnessKey struct {
	infra    Infrastructure
	counters int
	pattern  Pattern
	opt      compiler.OptLevel
	bench    string
	iters    int64
}

type harnessSlot struct {
	key  harnessKey
	prog *isa.Program
	used uint64
}

// Len returns the number of harnesses the memo holds.
func (h *Harnesses) Len() int {
	n := 0
	for i := range h.slots {
		if h.slots[i].prog != nil {
			n++
		}
	}
	return n
}

// harness returns the harness for req on infra, whose counters Setup
// has configured, building it on a miss.
func (h *Harnesses) harness(infra Infrastructure, req Request) (*isa.Program, error) {
	key := harnessKey{infra, infra.NumCounters(), req.Pattern, req.Opt, req.Bench.Name, req.Bench.Iterations}
	h.clock++
	victim := &h.slots[0]
	for i := range h.slots {
		s := &h.slots[i]
		if s.prog != nil && s.key == key {
			s.used = h.clock
			return s.prog, nil
		}
		if s.used < victim.used {
			victim = s
		}
	}
	prog, err := BuildHarness(infra, req)
	if err != nil {
		return nil, err
	}
	*victim = harnessSlot{key: key, prog: prog, used: h.clock}
	return prog, nil
}

// BuildHarness assembles the complete measurement program: compiled
// harness glue, the pattern's infrastructure calls, and the benchmark
// between the capture points.
func BuildHarness(infra Infrastructure, req Request) (*isa.Program, error) {
	req = req.withDefaults()
	glue := compiler.Harness(infra.Name(), req.Pattern.Code(), req.Opt, infra.Backend())
	name := fmt.Sprintf("harness-%s-%s-%s-%s", infra.Name(), req.Pattern.Code(), req.Bench, req.Opt)
	b := isa.NewBuilder(name, glue.Base)

	b.ALUBlock(glue.PreInstr)

	if req.Pattern.ReadsAtC0() {
		infra.EmitStart(b)
		infra.EmitRead(b, PhaseC0)
	} else {
		infra.EmitPrepare(b)
	}

	req.Bench.Emit(b)

	if req.Pattern.StopsBeforeC1() {
		infra.EmitStop(b)
	}
	infra.EmitRead(b, PhaseC1)

	b.ALUBlock(glue.PostInstr)
	b.Emit(isa.Halt())

	p := b.Build()
	if err := p.Validate(true); err != nil {
		return nil, fmt.Errorf("core: bad harness: %w", err)
	}
	return p, nil
}

// extract computes per-counter deltas from the core's capture log.
func extract(c *cpu.Core, n int, req Request) (*Measurement, error) {
	c0 := make([]int64, n)
	c1 := make([]int64, n)
	seen0 := make([]bool, n)
	seen1 := make([]bool, n)
	for _, cap := range c.Captures {
		switch {
		case cap.Slot < 0 || cap.Slot >= 2*n:
			return nil, fmt.Errorf("core: capture slot %d out of range", cap.Slot)
		case cap.Slot < n:
			c0[cap.Slot] = cap.Value
			seen0[cap.Slot] = true
		default:
			c1[cap.Slot-n] = cap.Value
			seen1[cap.Slot-n] = true
		}
	}
	m := &Measurement{
		Deltas:     make([]int64, n),
		Expected:   req.Bench.ExpectedInstr,
		Iterations: req.Bench.Iterations,
		TimerTicks: c.TimerDeliveries,
		Cycles:     c.Cycles,
	}
	for i := 0; i < n; i++ {
		if !seen1[i] {
			return nil, fmt.Errorf("core: counter %d: no c1 capture (pattern %s)", i, req.Pattern)
		}
		if req.Pattern.ReadsAtC0() {
			if !seen0[i] {
				return nil, fmt.Errorf("core: counter %d: no c0 capture (pattern %s)", i, req.Pattern)
			}
			m.Deltas[i] = c1[i] - c0[i]
		} else {
			m.Deltas[i] = c1[i] // c0 = 0 by reset
		}
	}
	return m, nil
}

// MeasureN runs the same request n times with seeds seedBase..seedBase+n-1
// and returns the per-run error of counter 0 — the repeated-measurement
// shape used throughout the paper's box plots. The n runs share one
// harness, built by a memo that lives for this call.
func MeasureN(k *kernel.Kernel, infra Infrastructure, req Request, n int, seedBase uint64) ([]int64, error) {
	var h Harnesses
	return h.MeasureN(k, infra, req, n, seedBase)
}

// MeasureN is core.MeasureN with the harnesses taken from the memo.
func (h *Harnesses) MeasureN(k *kernel.Kernel, infra Infrastructure, req Request, n int, seedBase uint64) ([]int64, error) {
	errs := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		req.Seed = seedBase + uint64(i)
		m, err := h.Measure(k, infra, req)
		if err != nil {
			return nil, err
		}
		errs = append(errs, m.Error(0, req.Mode))
	}
	return errs, nil
}
