// Package repro reproduces Zaparanuks, Jovic, and Hauswirth, "Accuracy
// of Performance Counter Measurements" (ISPASS 2009) as a Go library.
//
// The paper quantifies the measurement error that user-level
// performance-counter infrastructures — perfctr, perfmon2, and PAPI —
// introduce into hardware event counts on three IA32 processors. This
// module rebuilds the entire experimental apparatus as a deterministic
// simulation: the processors and their PMUs, a Linux-2.6.22-like kernel
// with both counter extensions, the six measurement stacks of the
// paper's Figure 2, the micro-benchmarks with analytically known counts,
// and the statistical analyses — so every table and figure of the paper
// can be regenerated (see package internal/experiments and the
// benchmarks in bench_test.go).
//
// # Quick start
//
//	sys, err := repro.NewSystem(repro.K8, repro.StackPHpc)
//	if err != nil { ... }
//	m, err := sys.Measure(repro.Request{
//	        Bench:   repro.LoopBenchmark(100000),
//	        Pattern: repro.StartRead,
//	        Mode:    repro.ModeUser,
//	})
//	fmt.Println("measured:", m.Deltas[0], "expected:", m.Expected)
//
// # Reproducing the paper
//
//	out, err := repro.RunExperiment("fig4", os.Stdout, repro.Quick)
//
// regenerates Figure 4 (the perfctr TSC study); RunExperiment accepts
// every ID in ExperimentIDs.
//
// # Concurrency
//
// All mutable state lives inside a System (its simulated processor,
// kernel, and infrastructure); the package-level tables (processor
// models, events, the experiment registry) are immutable after init.
// Consequently distinct Systems may be used from different goroutines
// freely, and RunExperiment is safe to call concurrently — each run
// builds its own systems. A single System is NOT safe for concurrent
// use; serialize access or pool several (see internal/service, which
// does exactly that behind cmd/pcserved).
//
// Measurements are deterministic: a System's results are a pure
// function of its configuration and the request (including its seed),
// and System.Reset rewinds a used system to its just-booted state so
// pooled systems measure byte-identically to fresh ones.
//
// # Serving measurements
//
// Command pcserved exposes this apparatus as a long-running JSON
// service with sharded system pools, a calibration cache, and request
// coalescing; bash bench/run.sh drives load against it. See the
// repository README for wire examples.
package repro

import (
	"fmt"
	"io"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/stack"
)

// Processor identifies one of the study's three processors (Table 1).
type Processor string

// The processors of the study.
const (
	// PD is the Pentium D 925 (NetBurst, 3.0 GHz, 18 programmable
	// counters).
	PD Processor = "PD"
	// CD is the Core 2 Duo E6600 (Core, 2.4 GHz, 2 programmable + 3
	// fixed counters).
	CD Processor = "CD"
	// K8 is the Athlon 64 X2 4200+ (K8, 2.2 GHz, 4 programmable
	// counters).
	K8 Processor = "K8"
)

// Processors lists the study's processors in the paper's order.
func Processors() []Processor { return []Processor{PD, CD, K8} }

// Stack codes of the six measurement infrastructures (Figure 2).
const (
	// StackPM is libpfm directly on perfmon2.
	StackPM = "pm"
	// StackPC is libperfctr directly on perfctr.
	StackPC = "pc"
	// StackPLpm is the PAPI low-level API over perfmon2.
	StackPLpm = "PLpm"
	// StackPLpc is the PAPI low-level API over perfctr.
	StackPLpc = "PLpc"
	// StackPHpm is the PAPI high-level API over perfmon2.
	StackPHpm = "PHpm"
	// StackPHpc is the PAPI high-level API over perfctr.
	StackPHpc = "PHpc"
)

// Stacks lists the stack codes in the paper's Figure 6 order.
func Stacks() []string { return append([]string(nil), stack.Codes...) }

// Re-exported measurement vocabulary. These alias the internal core
// types so that values round-trip freely between the facade and the
// packages beneath it.
type (
	// Pattern is a counter access pattern (Table 2).
	Pattern = core.Pattern
	// MeasureMode selects the counted privilege modes.
	MeasureMode = core.MeasureMode
	// Benchmark is a micro-benchmark with known ground truth.
	Benchmark = core.Benchmark
	// Request describes one measurement.
	Request = core.Request
	// Measurement is a measurement outcome.
	Measurement = core.Measurement
	// Event is a countable micro-architectural event.
	Event = cpu.Event
	// OptLevel is a gcc optimization level.
	OptLevel = compiler.OptLevel
	// Governor is a CPU frequency policy.
	Governor = kernel.Governor
)

// Re-exported pattern, mode, event, optimization, and governor values.
const (
	StartRead = core.StartRead
	StartStop = core.StartStop
	ReadRead  = core.ReadRead
	ReadStop  = core.ReadStop

	ModeUser       = core.ModeUser
	ModeUserKernel = core.ModeUserKernel
	ModeKernel     = core.ModeKernel

	EventInstructions = cpu.EventInstrRetired
	EventCycles       = cpu.EventCoreCycles
	EventBrMisp       = cpu.EventBrMispRetired

	O0 = compiler.O0
	O1 = compiler.O1
	O2 = compiler.O2
	O3 = compiler.O3

	GovernorPerformance = kernel.Performance
	GovernorPowersave   = kernel.Powersave
	GovernorOndemand    = kernel.Ondemand
)

// Benchmark constructors, re-exported.
var (
	// NullBenchmark is the zero-instruction benchmark (Section 3.4).
	NullBenchmark = core.NullBenchmark
	// LoopBenchmark is the paper's 1+3*MAX instruction loop (Figure 3).
	LoopBenchmark = core.LoopBenchmark
	// ArrayBenchmark is a memory-walking loop (1+4*iters instructions).
	ArrayBenchmark = core.ArrayBenchmark
)

// Option configures NewSystem.
type Option func(*stack.Options)

// WithTSC controls whether perfctr includes the TSC in its counter
// selection (default true; disabling it forces syscall reads — the
// Figure 4 study).
func WithTSC(on bool) Option {
	return func(o *stack.Options) { o.WithTSC = on }
}

// WithGovernor selects the CPU frequency policy (default performance,
// the study's configuration).
func WithGovernor(g Governor) Option {
	return func(o *stack.Options) { o.Governor = g }
}

// Runner is an execution engine (see internal/engine). Engines differ
// only in throughput: the interpreter steps every simulated
// instruction, the compiled engine bulk-applies precompiled basic-block
// summaries, and a conformance suite guarantees byte-identical
// measurements from both.
type Runner = cpu.Runner

// Engine constructors, re-exported. NewSystem without WithEngine uses a
// process-wide compiled engine with a shared compile cache.
var (
	// NewInterpreterEngine returns the canonical per-instruction engine.
	NewInterpreterEngine = func() Runner { return engine.NewInterpreter() }
	// NewCompiledEngine returns a block-dispatch engine with a private
	// compile cache.
	NewCompiledEngine = func() Runner { return engine.NewCompiled(nil) }
)

// WithEngine pins the system's execution engine (default: the shared
// compiled engine).
func WithEngine(r Runner) Option {
	return func(o *stack.Options) { o.Engine = r }
}

// System is a bootable measurement system: one simulated processor, a
// kernel with the stack's counter extension, and the chosen
// infrastructure.
type System struct {
	inner *stack.System
}

// NewSystem boots a measurement system for a processor and stack code.
func NewSystem(p Processor, stackCode string, opts ...Option) (*System, error) {
	m, err := cpu.ModelByTag(string(p))
	if err != nil {
		return nil, err
	}
	o := stack.DefaultOptions
	for _, opt := range opts {
		opt(&o)
	}
	s, err := stack.New(m, stackCode, o)
	if err != nil {
		return nil, err
	}
	return &System{inner: s}, nil
}

// Stack returns the system's stack code.
func (s *System) Stack() string { return s.inner.Code }

// Processor returns the system's processor.
func (s *System) Processor() Processor { return Processor(s.inner.Kernel.Model().Tag) }

// Measure performs one measurement.
func (s *System) Measure(req Request) (*Measurement, error) {
	return s.inner.Measure(req)
}

// MeasureN runs req n times (seeds seedBase..seedBase+n-1) and returns
// the per-run error of the first counter.
func (s *System) MeasureN(req Request, n int, seedBase uint64) ([]int64, error) {
	return s.inner.MeasureN(req, n, seedBase)
}

// Reset rewinds the system to its just-booted state: clock, TSC,
// counter values, frequency policy, and thread table. After Reset the
// system measures byte-identically to a freshly built one, so pools can
// recycle systems across requests (see internal/service).
func (s *System) Reset() { s.inner.Reset() }

// Calibration is an estimated fixed measurement error (Section 8).
type Calibration = core.Calibration

// Calibrate estimates the fixed error of a (pattern, mode, opt)
// configuration on this system by repeated null-benchmark runs — the
// paper's own calibration method. The system is Reset first, so the
// estimate is deterministic in (system configuration, runs, seed) —
// independent of what the system measured before — which lets services
// cache it.
func (s *System) Calibrate(pattern Pattern, mode MeasureMode, opt OptLevel, runs int, seed uint64) (Calibration, error) {
	s.inner.Reset()
	return core.CalibrateNull(s.inner.Kernel, s.inner.Infra, pattern, mode, opt, runs, seed)
}

// ProcessStartupCost returns the modeled instruction cost of creating
// and tearing down a process on this system — the overhead that
// whole-process tools like perfex include in their counts (Section 9).
func (s *System) ProcessStartupCost() int64 {
	return s.inner.Kernel.ProcessStartupCost()
}

// FrequencyGHz returns the system's current clock frequency, which the
// governor may change over time under the ondemand policy.
func (s *System) FrequencyGHz() float64 {
	return s.inner.Kernel.FrequencyGHz()
}

// Sweep vocabulary, re-exported: build systems with NewSystem, wrap
// them in SweepSystem via System.ForSweep, and run factorial accuracy
// studies whose records feed stats.ANOVA or CSV directly.
type (
	// SweepConfig describes a factorial accuracy study.
	SweepConfig = core.SweepConfig
	// SweepSystem is one system under study.
	SweepSystem = core.SweepSystem
	// SweepRecord is one measurement with its factor levels.
	SweepRecord = core.SweepRecord
)

// Sweep runs a factorial accuracy study (see core.Sweep).
var Sweep = core.Sweep

// ForSweep adapts the system for use in a SweepConfig.
func (s *System) ForSweep() SweepSystem {
	return SweepSystem{Kernel: s.inner.Kernel, Infra: s.inner.Infra}
}

// ExperimentConfig scales a paper experiment.
type ExperimentConfig = experiments.Config

// Experiment-scale presets.
var (
	// Full reproduces the published scale (Figure 1 alone runs >170000
	// measurements).
	Full = experiments.DefaultConfig
	// Quick is a reduced scale for smoke runs and tests.
	Quick = experiments.QuickConfig
)

// ExperimentIDs lists the reproducible experiments in the paper's order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns the human-readable title of an experiment.
func ExperimentTitle(id string) string { return experiments.Title(id) }

// RunExperiment executes a paper experiment and renders it to w. It
// returns the structured result for further inspection or JSON
// serialization.
func RunExperiment(id string, w io.Writer, cfg ExperimentConfig) (experiments.Result, error) {
	res, err := experiments.Run(id, cfg)
	if err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprintf(w, "== %s: %s ==\n\n", id, experiments.Title(id))
		if err := res.Render(w); err != nil {
			return nil, err
		}
	}
	return res, nil
}
