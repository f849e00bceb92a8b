// Package kernel models the operating system of the study: a Linux
// 2.6.22-like kernel with a periodic tick, a syscall interface that
// counter-access extensions (perfctr, perfmon2) plug into, per-thread
// context-switch hooks for counter virtualization, and a CPU frequency
// governor.
//
// The kernel is the source of two of the paper's findings:
//
//   - the duration-dependent measurement error (Section 5) comes from
//     tick-handler instructions attributed to the running thread's
//     kernel-mode counts, and
//   - frequency scaling (Section 8, guidelines) perturbs cycle
//     measurements unless the governor is pinned.
package kernel

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/xrand"
)

// HZ is the kernel tick frequency, as configured in the study's kernel.
const HZ = 1000.0

// Governor selects the CPU frequency policy (Section 8: the paper
// recommends pinning the frequency with performance or powersave).
type Governor uint8

const (
	// Performance pins the highest frequency.
	Performance Governor = iota
	// Powersave pins the lowest frequency.
	Powersave
	// Ondemand changes frequency with observed load; it is the default
	// on many distributions and the guideline's warning case.
	Ondemand
)

// String returns the Linux governor name.
func (g Governor) String() string {
	switch g {
	case Performance:
		return "performance"
	case Powersave:
		return "powersave"
	case Ondemand:
		return "ondemand"
	}
	return fmt.Sprintf("governor(%d)", uint8(g))
}

// SwitchHook is implemented by kernel extensions that maintain per-thread
// counter state: Save captures the hardware counters into the outgoing
// thread's context, Restore loads the incoming thread's.
type SwitchHook interface {
	Save(tid int)
	Restore(tid int)
}

// baseTickCost gives the instruction count of the bare tick handler
// (timer bookkeeping, time accounting, scheduler tick) per processor.
// Dynamic counts differ across micro-architectures because the same
// kernel source compiles and executes differently (lock prefixes, entry
// stubs); magnitudes are calibrated against the paper's Figure 7 slopes.
var baseTickCost = map[string]int{
	"PD": 2400,
	"CD": 1900,
	"K8": 660,
}

// tickJitter is the maximum extra instructions a tick handler may
// execute (cache effects, occasional deferred work).
const tickJitter = 120

// contextSwitchCost approximates the instruction count of a context
// switch excluding extension save/restore work.
var contextSwitchCost = map[string]int{
	"PD": 2600,
	"CD": 1900,
	"K8": 1500,
}

// processStartupCost approximates the kernel+loader instructions of
// process creation, dynamic linking, and teardown. Whole-process
// measurement tools (perfex, pfmon, papiex) include this in their
// counts, which is why the paper's Section 9 reports errors of tens of
// thousands of percent for them.
var processStartupCost = map[string]int64{
	"PD": 3_400_000,
	"CD": 2_600_000,
	"K8": 2_900_000,
}

// Kernel is the simulated operating system bound to one core.
type Kernel struct {
	// Core is the processor this kernel runs on.
	Core *cpu.Core

	model    *cpu.Model
	governor Governor
	curGHz   float64
	rng      *xrand.Rand

	syscalls      map[int]string // registered numbers -> owner, for conflicts
	tickExtra     int            // extension per-tick accounting instructions
	tickBias      float64        // extension attribution skew bias
	hooks         []SwitchHook
	tickListeners []tickListener
	nextListener  int
	threads       map[int]bool
	current       int
	switchCount   int
}

// tickListener is one registered tick callback with its removal handle.
type tickListener struct {
	id int
	f  func()
}

// New boots a kernel on a fresh core for the given processor model,
// installs the tick handler, and pins the performance governor (the
// study's configuration, Section 3.2).
func New(model *cpu.Model) *Kernel {
	k := &Kernel{
		Core:     cpu.NewCore(model),
		model:    model,
		governor: Performance,
		curGHz:   model.GHz,
		rng:      xrand.New(xrand.Mix(uint64(model.Arch), 0xbeef)),
		syscalls: make(map[int]string),
		threads:  map[int]bool{1: true},
		current:  1,
	}
	k.installTickHandler()
	k.Core.OnTick = k.fireTick
	return k
}

// fireTick runs after every timer interrupt: governor policy first,
// then registered listeners (multiplexers, profilers).
func (k *Kernel) fireTick() {
	if k.governor == Ondemand {
		k.ondemandTick()
	}
	for _, l := range k.tickListeners {
		l.f()
	}
}

// ResetState returns the kernel and its core to the just-booted state:
// clock and PMU rewound, frequency policy re-applied from its initial
// setting, the governor's random stream re-seeded, and the thread table
// reduced to the boot thread. Extension state (registered syscalls,
// tick work, switch hooks) is preserved — it is part of the system's
// configuration, not its execution history. Measurement services call
// this between requests so a pooled system behaves exactly like a
// freshly built one.
func (k *Kernel) ResetState() {
	k.Core.ResetClock()
	k.rng = xrand.New(xrand.Mix(uint64(k.model.Arch), 0xbeef))
	k.threads = map[int]bool{1: true}
	k.current = 1
	k.switchCount = 0
	k.SetGovernor(k.governor)
}

// AddTickListener registers a callback invoked after every timer tick,
// in registration order, and returns a handle for RemoveTickListener.
func (k *Kernel) AddTickListener(f func()) int {
	k.nextListener++
	k.tickListeners = append(k.tickListeners, tickListener{id: k.nextListener, f: f})
	return k.nextListener
}

// RemoveTickListener unregisters a tick callback. Transient consumers
// (multiplexers, profilers) must remove their listeners when done so a
// pooled system carries no observer from one request into the next.
func (k *Kernel) RemoveTickListener(id int) {
	for i, l := range k.tickListeners {
		if l.id == id {
			k.tickListeners = append(k.tickListeners[:i], k.tickListeners[i+1:]...)
			return
		}
	}
}

// Model returns the processor model.
func (k *Kernel) Model() *cpu.Model { return k.model }

// ErrSyscallTaken reports a syscall-number collision between extensions.
var ErrSyscallTaken = errors.New("kernel: syscall number already registered")

// RegisterSyscall installs handler at syscall number nr on behalf of
// owner (an extension name).
func (k *Kernel) RegisterSyscall(nr int, owner string, handler *isa.Program) error {
	if prev, ok := k.syscalls[nr]; ok {
		return fmt.Errorf("%w: %d (owner %s)", ErrSyscallTaken, nr, prev)
	}
	if err := handler.Validate(false); err != nil {
		return fmt.Errorf("kernel: invalid handler for syscall %d: %v", nr, err)
	}
	k.syscalls[nr] = owner
	k.Core.Syscalls[nr] = handler
	return nil
}

// UpdateSyscall installs or replaces the handler at nr. Replacement is
// allowed only for the owning extension; extensions swap handlers when a
// measurement context is reconfigured (the handler code paths depend on
// how many counters are in use). A handler is validated when it is
// installed; the owner reinstalling the program already at nr is a
// no-op.
func (k *Kernel) UpdateSyscall(nr int, owner string, handler *isa.Program) error {
	prev, ok := k.syscalls[nr]
	if ok && prev != owner {
		return fmt.Errorf("%w: %d (owner %s)", ErrSyscallTaken, nr, prev)
	}
	if ok && k.Core.Syscalls[nr] == handler {
		return nil
	}
	if err := handler.Validate(false); err != nil {
		return fmt.Errorf("kernel: invalid handler for syscall %d: %v", nr, err)
	}
	k.syscalls[nr] = owner
	k.Core.Syscalls[nr] = handler
	return nil
}

// RegisteredSyscalls returns the installed syscall numbers in order.
func (k *Kernel) RegisteredSyscalls() []int {
	nrs := make([]int, 0, len(k.syscalls))
	for nr := range k.syscalls {
		nrs = append(nrs, nr)
	}
	sort.Ints(nrs)
	return nrs
}

// InstallTickWork adds per-tick accounting work on behalf of a counter
// extension (perfctr and perfmon2 both hook the tick) and sets the
// extension's interrupt attribution bias.
func (k *Kernel) InstallTickWork(instr int, skewBias float64) {
	k.tickExtra = instr
	k.tickBias = skewBias
	k.installTickHandler()
}

// AddSwitchHook registers per-thread counter save/restore callbacks.
func (k *Kernel) AddSwitchHook(h SwitchHook) {
	k.hooks = append(k.hooks, h)
}

// tickHandlers shares timer interrupt handlers between kernels. A
// handler's one input is its straight-line instruction count.
var tickHandlers Shared[int, *isa.Program]

// installTickHandler installs the timer interrupt handler program for
// the current tick work.
func (k *Kernel) installTickHandler() {
	n := baseTickCost[k.model.Tag] + k.tickExtra
	k.Core.InstallTimer(HZ, tickHandlers.Get(n, func() *isa.Program {
		b := isa.NewBuilder("tick", 0xffff_8000_0000)
		b.ALUBlock(n)
		b.Emit(isa.VarWork(tickJitter, 1))
		b.Emit(isa.IRet())
		return b.Build()
	}))
	k.Core.Timer.SkewBias = k.tickBias
	k.applyFrequency()
}

// Shared builds kernel programs once per process and hands every kernel
// the same ones. It is for handlers whose content is a pure function of
// a small key: the tick handler of an instruction count, an extension's
// syscall handlers for a processor and counter count. Sharing gives each
// handler one stable pointer, which the compiled engine's cache
// recognizes without hashing, and no Setup or run rebuilds it.
//
// The key must cover every input the build reads, and the key space
// must be small: entries are never evicted. Shared values are never
// modified; isa.Builder.Build fills a program's address table, so
// executing a built program does not write to it. The zero value is
// ready to use and safe for concurrent use.
type Shared[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// Get returns the value for key, calling build on first use. Two
// goroutines missing at once may both build; the first to finish wins
// and both return its value.
func (s *Shared[K, V]) Get(key K, build func() V) V {
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	s.mu.Lock()
	defer s.mu.Unlock()
	if won, ok := s.m[key]; ok {
		return won
	}
	if s.m == nil {
		s.m = make(map[K]V)
	}
	s.m[key] = v
	return v
}

// SetGovernor selects the frequency policy. Performance and powersave
// pin the frequency; ondemand lets it wander at each tick.
func (k *Kernel) SetGovernor(g Governor) {
	k.governor = g
	switch g {
	case Performance:
		k.curGHz = k.model.GHz
	case Powersave:
		k.curGHz = k.minGHz()
	case Ondemand:
		// Start low; ramps on the first busy tick.
		k.curGHz = k.minGHz()
	}
	k.applyFrequency()
}

// Governor returns the current policy.
func (k *Kernel) Governor() Governor { return k.governor }

// FrequencyGHz returns the current clock frequency.
func (k *Kernel) FrequencyGHz() float64 { return k.curGHz }

// minGHz is the lowest P-state, roughly half nominal on these parts.
func (k *Kernel) minGHz() float64 { return k.model.GHz / 2 }

// ondemandTick models the ondemand governor's frequency decisions: on
// each tick the frequency may step between the min and max P-states.
// The resulting mid-measurement transitions are the variability source
// the paper's Section 8 guideline warns about.
func (k *Kernel) ondemandTick() {
	if k.rng.Float64() < 0.35 {
		if k.curGHz == k.model.GHz {
			k.curGHz = k.minGHz()
		} else {
			k.curGHz = k.model.GHz
		}
		k.applyFrequency()
	}
}

// applyFrequency propagates the current frequency into the core: the
// tick period in cycles shrinks with the clock, and memory costs
// measured in cycles scale with it (the bus clock does not change —
// the effect the paper highlights).
func (k *Kernel) applyFrequency() {
	k.Core.Timer.Period = k.curGHz * 1e9 / HZ
	k.Core.FreqScale = k.curGHz / k.model.GHz
}

// Threads returns the IDs of existing threads in order.
func (k *Kernel) Threads() []int {
	ids := make([]int, 0, len(k.threads))
	for id := range k.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// CurrentThread returns the running thread's ID.
func (k *Kernel) CurrentThread() int { return k.current }

// SpawnThread creates a new thread and returns its ID.
func (k *Kernel) SpawnThread() int {
	id := 1
	for k.threads[id] {
		id++
	}
	k.threads[id] = true
	return id
}

// ErrNoThread reports a context switch to a nonexistent thread.
var ErrNoThread = errors.New("kernel: no such thread")

// SwitchTo performs a context switch to thread tid: extension hooks save
// the outgoing thread's counter state and restore the incoming one's,
// and the switch path's kernel instructions are executed (and therefore
// counted by any enabled kernel-gated counters).
func (k *Kernel) SwitchTo(tid int) error {
	if !k.threads[tid] {
		return fmt.Errorf("%w: %d", ErrNoThread, tid)
	}
	if tid == k.current {
		return nil
	}
	for _, h := range k.hooks {
		h.Save(k.current)
	}
	k.runKernelWork(contextSwitchCost[k.model.Tag])
	for _, h := range k.hooks {
		h.Restore(tid)
	}
	k.current = tid
	k.switchCount++
	return nil
}

// SwitchCount returns the number of context switches performed.
func (k *Kernel) SwitchCount() int { return k.switchCount }

// runKernelWork retires n kernel-mode instructions outside any program
// context (used for switch paths invoked from the host side).
func (k *Kernel) runKernelWork(n int) {
	b := isa.NewBuilder("cswitch", 0xffff_9000_0000)
	b.ALUBlock(n)
	b.Emit(isa.SysRet())
	prog := b.Build()
	// Borrow the syscall mechanism: run the work as a transient handler.
	const transientNr = -1
	k.Core.Syscalls[transientNr] = prog
	trampoline := isa.NewBuilder("cswitch-entry", 0xff00).
		Emit(isa.Syscall(transientNr), isa.Halt()).Build()
	// Ignore error: the transient program is valid by construction.
	_ = k.Core.Run(trampoline)
	delete(k.Core.Syscalls, transientNr)
}

// ProcessStartupCost returns the modeled instruction cost of creating
// and tearing down a process on this kernel (used by the whole-process
// measurement tools to reproduce the Section 9 discussion).
func (k *Kernel) ProcessStartupCost() int64 {
	return processStartupCost[k.model.Tag]
}
