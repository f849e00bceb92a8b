package cpu

import (
	"errors"
	"fmt"
	"math/bits"
)

// CounterConfig programs one performance counter: what to count and in
// which privilege modes (Section 2.5 of the paper — user, kernel, or
// both — is a per-counter hardware capability).
type CounterConfig struct {
	// Event is the micro-architectural event to count.
	Event Event
	// User enables counting while the processor runs in user mode.
	User bool
	// OS enables counting while the processor runs in kernel mode.
	OS bool
	// OverflowPeriod, when positive, raises a PMU interrupt every time
	// the counter crosses a multiple of the period — the hardware
	// mechanism behind statistical sampling (Section 2.1: counters "can
	// be configured to cause an interrupt at overflow"). Zero disables
	// overflow interrupts.
	OverflowPeriod int64
}

// CountsIn reports whether the configuration counts events occurring in
// the given mode.
func (c CounterConfig) CountsIn(m Mode) bool {
	if m == User {
		return c.User
	}
	return c.OS
}

// Counter is one hardware counter register. Values are kept as float64:
// instruction counts stay exact (integers below 2^53) while cycle counts
// can accumulate fractional per-instruction costs. Configuration and
// enable state change only through the PMU's methods, which keep its
// event routing in step with them.
type Counter struct {
	cfg     CounterConfig
	enabled bool
	value   float64
}

// Value returns the current count, truncated to an integer as a read of
// the 48-bit hardware register would.
func (c *Counter) Value() int64 { return int64(c.value) }

// Raw returns the counter's unrounded accumulator. Engine conformance
// tests compare it bit-exactly: Value's truncation could mask
// sub-integer drift between execution engines.
func (c *Counter) Raw() float64 { return c.value }

// PMU is the per-core performance monitoring unit: programmable counters,
// optional fixed-function counters, and the time stamp counter.
type PMU struct {
	model *Model
	// Prog holds the programmable counters, Fixed the fixed-function ones.
	Prog  []Counter
	Fixed []Counter
	// tsc is the time stamp counter in cycles. Unlike the event counters
	// it cannot be disabled and counts in every privilege mode.
	tsc float64
	// pending holds overflow crossings awaiting collection.
	pending []Overflow
	// route lists, per (mode, event), the enabled counters gated into
	// that mode and programmed with that event, so AddEvent visits only
	// the counters it credits. Every method that changes a counter's
	// configuration or enable state rebuilds it (reroute).
	route [Kernel + 1][numEvents]routeMask
}

// routeMask is a set of counters by index: bit i of prog is Prog[i],
// bit i of fixed is Fixed[i]. Enable masks are already 64 bits wide, so
// no model has more counters than a mask holds.
type routeMask struct {
	prog, fixed uint64
}

// ErrBadCounter reports an out-of-range counter index.
var ErrBadCounter = errors.New("cpu: counter index out of range")

// NewPMU returns the PMU for the given processor model.
func NewPMU(m *Model) *PMU {
	p := &PMU{
		model: m,
		Prog:  make([]Counter, m.NumProgrammable),
		Fixed: make([]Counter, m.NumFixed),
	}
	for i := range p.Fixed {
		p.Fixed[i].cfg = CounterConfig{Event: m.FixedEvents[i], User: true, OS: true}
	}
	p.reroute()
	return p
}

// Model returns the processor model this PMU belongs to.
func (p *PMU) Model() *Model { return p.model }

// Configure programs programmable counter i. It validates that the event
// is supported by the micro-architecture — the check libpfm performs when
// translating event names.
func (p *PMU) Configure(i int, cfg CounterConfig) error {
	if i < 0 || i >= len(p.Prog) {
		return fmt.Errorf("%w: %d (model %s has %d)", ErrBadCounter, i, p.model.Tag, len(p.Prog))
	}
	if cfg.Event != EventNone && !SupportsEvent(p.model.Arch, cfg.Event) {
		return fmt.Errorf("cpu: event %s not supported on %s", cfg.Event, p.model.Arch)
	}
	p.Prog[i].cfg = cfg
	p.reroute()
	return nil
}

// ConfigureFixed sets the privilege gating of fixed counter i. The event
// cannot be changed (limited programmability, Section 2.1).
func (p *PMU) ConfigureFixed(i int, user, os bool) error {
	if i < 0 || i >= len(p.Fixed) {
		return fmt.Errorf("%w: fixed %d (model %s has %d)", ErrBadCounter, i, p.model.Tag, len(p.Fixed))
	}
	p.Fixed[i].cfg.User = user
	p.Fixed[i].cfg.OS = os
	p.reroute()
	return nil
}

// Enable starts counting on the programmable counters in mask.
func (p *PMU) Enable(mask uint64) {
	for i := range p.Prog {
		if mask&(1<<uint(i)) != 0 {
			p.Prog[i].enabled = true
		}
	}
	p.reroute()
}

// Disable stops counting on the programmable counters in mask.
func (p *PMU) Disable(mask uint64) {
	for i := range p.Prog {
		if mask&(1<<uint(i)) != 0 {
			p.Prog[i].enabled = false
		}
	}
	p.reroute()
}

// Reset zeroes the programmable counters in mask.
func (p *PMU) Reset(mask uint64) {
	for i := range p.Prog {
		if mask&(1<<uint(i)) != 0 {
			p.Prog[i].value = 0
		}
	}
}

// EnableFixed enables all fixed counters.
func (p *PMU) EnableFixed() {
	for i := range p.Fixed {
		p.Fixed[i].enabled = true
	}
	p.reroute()
}

// Value returns the value of programmable counter i.
func (p *PMU) Value(i int) (int64, error) {
	if i < 0 || i >= len(p.Prog) {
		return 0, fmt.Errorf("%w: %d", ErrBadCounter, i)
	}
	return p.Prog[i].Value(), nil
}

// SetValue overwrites the raw value of programmable counter i; kernel
// extensions use it to restore a thread's counters at context switch.
func (p *PMU) SetValue(i int, v int64) error {
	if i < 0 || i >= len(p.Prog) {
		return fmt.Errorf("%w: %d", ErrBadCounter, i)
	}
	p.Prog[i].value = float64(v)
	return nil
}

// TSC returns the time stamp counter.
func (p *PMU) TSC() int64 { return int64(p.tsc) }

// AddInstr credits n retired instructions executed in mode to every
// enabled counter counting EventInstrRetired in that mode.
func (p *PMU) AddInstr(mode Mode, n int64) {
	p.AddEvent(mode, EventInstrRetired, float64(n))
}

// AddCycles advances time by c cycles spent in mode: the TSC always
// advances; cycle-event counters advance when gated into the mode.
func (p *PMU) AddCycles(mode Mode, c float64) {
	p.tsc += c
	p.AddEvent(mode, EventCoreCycles, c)
}

// AddEvent credits n occurrences of ev in mode to all enabled, gated
// counters. n is fractional only for cycle events. Counters configured
// with an overflow period record their period crossings for the
// execution engine to collect via TakeOverflows. Counters are visited
// in ascending index order, so pending overflows queue in counter order.
func (p *PMU) AddEvent(mode Mode, ev Event, n float64) {
	if ev >= numEvents {
		return // no counter can be programmed with it
	}
	r := p.route[mode][ev]
	for m := r.prog; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ctr := &p.Prog[i]
		prev := ctr.value
		ctr.value += n
		if period := ctr.cfg.OverflowPeriod; period > 0 {
			crossings := int64(ctr.value)/period - int64(prev)/period
			if crossings > 0 {
				p.pending = append(p.pending, Overflow{Counter: i, Crossings: crossings})
			}
		}
	}
	for m := r.fixed; m != 0; m &= m - 1 {
		p.Fixed[bits.TrailingZeros64(m)].value += n
	}
}

// reroute rebuilds the (mode, event) routing table from the counters'
// configuration and enable state.
func (p *PMU) reroute() {
	p.route = [Kernel + 1][numEvents]routeMask{}
	for _, mode := range [...]Mode{User, Kernel} {
		for i := range p.Prog {
			if ctr := &p.Prog[i]; ctr.enabled && ctr.cfg.CountsIn(mode) {
				p.route[mode][ctr.cfg.Event].prog |= 1 << uint(i)
			}
		}
		for i := range p.Fixed {
			if ctr := &p.Fixed[i]; ctr.enabled && ctr.cfg.CountsIn(mode) {
				p.route[mode][ctr.cfg.Event].fixed |= 1 << uint(i)
			}
		}
	}
}

// ZeroState returns the PMU to its power-on counting state: every
// programmable counter disabled at zero, every fixed counter zeroed,
// the TSC reset, and pending overflows dropped. Counter *configuration*
// is left alone — infrastructures reprogram it per measurement — but no
// residue of earlier runs survives, which is what lets a pooled system
// serve byte-identical results regardless of its history.
func (p *PMU) ZeroState() {
	for i := range p.Prog {
		p.Prog[i].enabled = false
		p.Prog[i].value = 0
	}
	for i := range p.Fixed {
		p.Fixed[i].enabled = false
		p.Fixed[i].value = 0
	}
	p.tsc = 0
	p.pending = nil
	p.reroute()
}

// Overflow records counter period crossings awaiting interrupt delivery.
type Overflow struct {
	// Counter is the programmable counter index.
	Counter int
	// Crossings is how many period boundaries were crossed (bulk
	// advancement can cross several at once).
	Crossings int64
}

// TakeOverflows returns and clears the pending overflow records.
func (p *PMU) TakeOverflows() []Overflow {
	if len(p.pending) == 0 {
		return nil
	}
	out := p.pending
	p.pending = nil
	return out
}

// ArmedCounter describes an enabled counter with overflow sampling
// armed: its event and how many more events until the next period
// crossing.
type ArmedCounter struct {
	Counter  int
	Event    Event
	Headroom int64
}

// ArmedHeadrooms lists the armed counters gated into mode. The
// execution engine uses this to bound bulk advancement so that overflow
// interrupts fire at the crossing rather than at the end of a large
// chunk.
func (p *PMU) ArmedHeadrooms(mode Mode) []ArmedCounter {
	var out []ArmedCounter
	for i := range p.Prog {
		ctr := &p.Prog[i]
		period := ctr.cfg.OverflowPeriod
		if !ctr.enabled || period <= 0 || !ctr.cfg.CountsIn(mode) {
			continue
		}
		v := int64(ctr.value)
		out = append(out, ArmedCounter{
			Counter:  i,
			Event:    ctr.cfg.Event,
			Headroom: period - v%period,
		})
	}
	return out
}

// SkewExclusive models the attribution rounding that occurs when an
// interrupt saves and restores counter state mid-stream: delta
// instructions move between the user and kernel attributions. Counters
// counting user-only instructions gain delta, kernel-only counters lose
// it, and counters gated to both modes are — correctly — unaffected,
// since misattribution between modes preserves their total. Counters
// never go negative.
func (p *PMU) SkewExclusive(delta float64) {
	apply := func(ctr *Counter) {
		if !ctr.enabled || ctr.cfg.Event != EventInstrRetired {
			return
		}
		switch {
		case ctr.cfg.User && !ctr.cfg.OS:
			ctr.value += delta
		case ctr.cfg.OS && !ctr.cfg.User:
			ctr.value -= delta
		}
		if ctr.value < 0 {
			ctr.value = 0
		}
	}
	for i := range p.Prog {
		apply(&p.Prog[i])
	}
	for i := range p.Fixed {
		apply(&p.Fixed[i])
	}
}
