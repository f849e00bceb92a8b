// Package stack assembles complete measurement systems: a simulated
// processor, a kernel with a counter extension, and one of the six
// counter-access infrastructures of Figure 2.
package stack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/papi"
	"repro/internal/perfctr"
	"repro/internal/perfmon"
)

// Codes lists the six stacks in the paper's Figure 6 presentation order.
var Codes = []string{"PHpm", "PHpc", "PLpm", "PLpc", "pm", "pc"}

// DirectCodes lists the two direct (non-PAPI) stacks.
var DirectCodes = []string{"pm", "pc"}

// System is a bootable measurement system.
type System struct {
	// Kernel is the booted kernel (Core reachable through it).
	Kernel *kernel.Kernel
	// Infra is the counter-access stack under test.
	Infra core.Infrastructure
	// Code is the stack code the system was built from.
	Code string
	// TSC reports whether the perfctr TSC fast-read path is enabled
	// (meaningless for perfmon-backed stacks).
	TSC bool
	// Engine is the execution engine measurements run on when the
	// request does not pin one; nil selects the process default.
	Engine cpu.Runner

	// harnesses memoizes the system's harness programs across runs.
	harnesses core.Harnesses
}

// Options configure system construction.
type Options struct {
	// WithTSC enables the TSC in perfctr counter selections. The
	// paper's guideline configuration (and every experiment except the
	// Figure 4 TSC study) keeps it on.
	WithTSC bool
	// Governor selects the frequency policy; the study pins
	// "performance" (Section 3.2).
	Governor kernel.Governor
	// Engine is the execution engine for this system's measurements
	// (nil: the process default, the compiled engine). Engines are
	// conformance-tested to be byte-identical, so the choice affects
	// throughput only.
	Engine cpu.Runner
}

// DefaultOptions is the study's configuration.
var DefaultOptions = Options{WithTSC: true, Governor: kernel.Performance}

// New boots a measurement system for the given processor and stack code
// (pm, pc, PLpm, PLpc, PHpm, PHpc).
func New(model *cpu.Model, code string, opts Options) (*System, error) {
	k := kernel.New(model)
	k.SetGovernor(opts.Governor)

	var backend core.Infrastructure
	var err error
	switch backendOf(code) {
	case "pc":
		backend, err = perfctr.New(k, opts.WithTSC)
	case "pm":
		backend, err = perfmon.New(k)
	default:
		return nil, fmt.Errorf("stack: unknown stack code %q", code)
	}
	if err != nil {
		return nil, err
	}

	infra := backend
	switch levelOf(code) {
	case "PL":
		infra = papi.New(backend, papi.Low)
	case "PH":
		infra = papi.New(backend, papi.High)
	}
	return &System{Kernel: k, Infra: infra, Code: code, TSC: opts.WithTSC, Engine: opts.Engine}, nil
}

// backendOf extracts the substrate code ("pm" or "pc").
func backendOf(code string) string {
	if len(code) >= 2 {
		return code[len(code)-2:]
	}
	return code
}

// levelOf extracts the PAPI level prefix ("", "PL", or "PH").
func levelOf(code string) string {
	if len(code) == 4 {
		return code[:2]
	}
	return ""
}

// Reset returns the system to its just-booted state. A reset system
// produces byte-identical measurements to a freshly constructed one for
// the same request, which is what allows worker pools to reuse systems
// across requests without execution history leaking between them.
func (s *System) Reset() {
	s.Kernel.ResetState()
}

// Measure runs one measurement on this system. Requests that do not
// pin an engine run on the system's engine. The system reuses the
// harness of a shape it has measured recently (core.Harnesses).
func (s *System) Measure(req core.Request) (*core.Measurement, error) {
	if req.Runner == nil {
		req.Runner = s.Engine
	}
	return s.harnesses.Measure(s.Kernel, s.Infra, req)
}

// MeasureN runs n repetitions and returns counter 0's per-run error.
func (s *System) MeasureN(req core.Request, n int, seedBase uint64) ([]int64, error) {
	if req.Runner == nil {
		req.Runner = s.Engine
	}
	return s.harnesses.MeasureN(s.Kernel, s.Infra, req, n, seedBase)
}
