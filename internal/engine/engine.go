// Package engine provides the execution engines that drive a cpu.Core
// through an isa.Program: an interpreter engine that steps every
// instruction through the core's canonical dispatch, and a compiled
// engine that pre-lowers programs into basic blocks with per-block
// event-delta summaries so steady-state execution does one table add
// per block instead of per-instruction PMU accounting.
//
// Both engines are required to produce byte-identical architectural
// state — clock, TSC, counter values, captures, tallies, interrupt
// counts — for every program. That is not best-effort: the accuracy
// analyses layered above (calibration, duet pairing, posterior fusion)
// assume measurements are a pure function of the request, so an engine
// that drifted by even one counter event would silently invalidate
// them. The conformance suite in this package asserts the identity over
// the full benchmark × processor × counting/sampling/multiplexing
// matrix, and exactness of the underlying float arithmetic is
// guaranteed by the cycle-cost grid (see cpu.CycleGrain).
//
// The compiled engine falls back to stepwise execution inside blocks
// containing PMU-visible instructions (RDPMC/RDTSC/RDMSR/WRMSR,
// syscalls, VarWork), when a timer tick could fire mid-block, or when a
// sampling consumer needs overflow interrupts delivered at exact
// crossings — everywhere except inside the overflow handler, where the
// interrupt is masked and crossings are only counted as lost. A cold
// fetch footprint does not force a fallback: its first-touch penalties
// are folded into the bulk application, and a block that has already
// run in this run skips the fetch check altogether. Plain loop bodies
// keep using the core's existing O(1) loop fast-forward.
package engine

import (
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Interpreter is the reference engine: the core's own per-instruction
// interpreter loop, unchanged. It exists so callers can pin a request
// to the canonical path and cross-check the compiled engine against it.
type Interpreter struct {
	runs atomic.Int64
}

// NewInterpreter returns an interpreter engine.
func NewInterpreter() *Interpreter { return &Interpreter{} }

// Name implements cpu.Runner.
func (e *Interpreter) Name() string { return "interpreter" }

// Runs returns the number of programs this engine has executed.
func (e *Interpreter) Runs() int64 { return e.runs.Load() }

// RunProgram implements cpu.Runner by delegating to the core's
// interpreter, with nested handlers interpreted too.
func (e *Interpreter) RunProgram(c *cpu.Core, p *isa.Program) error {
	e.runs.Add(1)
	c.NestedRun = nil
	return c.Run(p)
}

// defaultEngine is the process-wide compiled engine used when no engine
// is injected; its compile cache is shared across all systems.
var defaultEngine = NewCompiled(NewCache(DefaultCacheCapacity))

// Default returns the process-wide default engine (compiled).
func Default() cpu.Runner { return defaultEngine }
