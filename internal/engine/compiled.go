package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// Compiled is the block-dispatch engine: programs are lowered once into
// basic blocks with precomputed event-delta summaries, and execution
// bulk-applies a whole block per dispatch wherever that is provably
// indistinguishable from stepping — falling back to the core's
// canonical per-instruction dispatch everywhere else. Nested handler
// programs (syscall, tick, PMU overflow) run through the same machinery
// via cpu.Core.NestedRun, which is where most of the speedup comes
// from: the kernel tick handler alone is thousands of straight-line ALU
// instructions per delivery.
//
// A Compiled engine is safe for concurrent use by multiple cores; the
// per-run state it needs lives in a runState taken from a pool for the
// duration of one RunProgram.
type Compiled struct {
	cache *Cache
	runs  atomic.Int64
	pool  sync.Pool // of *runState
}

// NewCompiled returns a compiled engine backed by the given cache (nil
// for a private cache with the default capacity).
func NewCompiled(cache *Cache) *Compiled {
	if cache == nil {
		cache = NewCache(DefaultCacheCapacity)
	}
	return &Compiled{cache: cache}
}

// Name implements cpu.Runner.
func (e *Compiled) Name() string { return "compiled" }

// Runs returns the number of programs this engine has executed.
func (e *Compiled) Runs() int64 { return e.runs.Load() }

// CacheStats returns the engine's compile-cache counters.
func (e *Compiled) CacheStats() CacheStats { return e.cache.Stats() }

// RunProgram implements cpu.Runner: it resets per-run core state and
// executes p to completion through block dispatch, routing nested
// handler programs through the engine as well. A warm run (every
// program it meets already compiled) allocates nothing: its memo, warm
// sets and nested-run hook come from a pooled runState.
func (e *Compiled) RunProgram(c *cpu.Core, p *isa.Program) error {
	e.runs.Add(1)
	s, _ := e.pool.Get().(*runState)
	if s == nil {
		s = &runState{e: e, memo: make([]runEntry, 0, 8)}
		s.nested = func(q *isa.Program) error {
			return s.e.runFrame(s.c, q, s.lookup(q))
		}
	}
	s.c = c
	prev := c.NestedRun
	c.NestedRun = s.nested
	defer func() {
		c.NestedRun = prev
		s.reset()
		e.pool.Put(s)
	}()

	// The warm sets are exact only because BeginRun runs once, here,
	// before any block: a core's fetch state only grows between BeginRun
	// calls, so a block applied earlier in this run has its whole
	// footprint warm. The one Core.Run that could nest and reset it is
	// the one in kernel.SwitchTo, which only host code calls, between
	// runs.
	c.BeginRun()
	return e.runFrame(c, p, s.lookup(p))
}

// runState is one run's memo. Within a run the same handful of
// programs (the top-level program plus the kernel's handlers) recurs
// thousands of times, and a pointer scan over a few entries beats
// re-hashing a 2000-instruction tick handler on every delivery. Each
// program also gets the set of its blocks already applied in this run,
// which lives only here: compiled programs are shared by every core and
// may be evicted from the cache, so no per-run state is stored on them.
type runState struct {
	e *Compiled
	c *cpu.Core
	// memo holds one entry per program met in the run, scanned by
	// program pointer.
	memo []runEntry
	// words backs every warm set of the run; sets are carved from it
	// in the order programs are met and cleared as they are carved.
	words []uint64
	// nested is the core's NestedRun hook for the run, bound once per
	// state so installing it allocates nothing.
	nested func(q *isa.Program) error
}

// lookup returns q's memo entry, compiling q (through the cache) and
// carving its warm set on first sight in the run.
func (s *runState) lookup(q *isa.Program) runEntry {
	for _, ent := range s.memo {
		if ent.prog == q {
			return ent
		}
	}
	cp := s.e.cache.lookup(q, s.c.Model.Tag)
	n := (cp.nblocks + 63) / 64
	if len(s.words)+n > cap(s.words) {
		// Sets carved so far keep the old array; later runs carve from
		// the larger one, so the state stops growing once it fits a run.
		s.words = make([]uint64, 0, max(2*cap(s.words), n))
	}
	w := s.words[len(s.words) : len(s.words)+n]
	clear(w)
	s.words = s.words[:len(s.words)+n]
	ent := runEntry{prog: q, cp: cp, warm: warmSet(w)}
	s.memo = append(s.memo, ent)
	return ent
}

// reset empties the state for the next run, dropping its references to
// the core and to programs, which may be evicted from the cache.
func (s *runState) reset() {
	s.c = nil
	clear(s.memo)
	s.memo, s.words = s.memo[:0], s.words[:0]
}

// runEntry is one program's entry in a run's memo: the program, its
// compiled form, and which of its blocks have been applied in the run.
type runEntry struct {
	prog *isa.Program
	cp   *program
	warm warmSet
}

// warmSet holds one bit per block id: set once the block has been
// applied in the current run, which leaves its fetch footprint warm.
type warmSet []uint64

func (w warmSet) has(id int) bool { return w[id/64]&(1<<uint(id%64)) != 0 }

func (w warmSet) add(id int) { w[id/64] |= 1 << uint(id%64) }

// runFrame executes one program frame: block dispatch where a block is
// compiled and bulk application is exact, the core's Step everywhere
// else (which also handles loops, PMU-visible instructions, and frame
// terminators).
func (e *Compiled) runFrame(c *cpu.Core, p *isa.Program, ent runEntry) error {
	err := c.PushFrame(p)
	defer c.PopFrame()
	if err != nil {
		return err
	}

	pc := 0
	for {
		if b := ent.cp.blockAt(pc); b != nil {
			warm := ent.warm.has(b.id)
			if cyc, ok := canBulk(c, b, warm); ok {
				applyBlock(c, b, cyc, warm)
				ent.warm.add(b.id)
				if err := c.CheckInterrupts(); err != nil {
					return err
				}
				pc = b.next
				continue
			}
		}
		next, done, err := c.Step(p, pc)
		if done || err != nil {
			return err
		}
		pc = next
	}
}

// canBulk decides whether a block may be applied in bulk right now, and
// returns its cycle cost when it may. warm reports that the block has
// already been applied in this run, so its fetch footprint is warm.
// Bulk application is allowed only when it is provably byte-identical
// to stepping:
//
//   - overflow delivery is not live (cpu.Core.OverflowLive): with a
//     sampling consumer attached, an overflow interrupt must fire at
//     the exact crossing, which only stepping observes. Inside the
//     overflow handler delivery is masked and crossings are only
//     summed into OverflowsLost; AddEvent's crossing count telescopes,
//     so one bulk add records the same total as stepping;
//   - the timer cannot fire strictly inside the block — per-instruction
//     costs and cold-fetch penalties are positive and exact, so if the
//     block's total cost (including the first-touch penalties of its
//     still-cold lines and pages) stays short of Timer.Next no
//     intermediate instruction can reach it.
//
// Cold fetch footprint does NOT force a fallback: first-touch i-cache
// and i-TLB penalties are integer cycle constants and integer event
// counts, so charging them en bloc (cpu.Core.FetchMark) is bit-identical
// to charging them at each instruction's fetch. The returned cost is
// the class cycles only; FetchMark adds the penalty cycles itself.
func canBulk(c *cpu.Core, b *block, warm bool) (float64, bool) {
	if c.OverflowLive() {
		return 0, false
	}
	cyc := b.cycles(c)
	if c.TimerActive() {
		total := cyc
		if !warm {
			if coldLines, coldPages := c.FetchColdCount(b.fetch); coldLines|coldPages != 0 {
				total += float64(coldLines)*c.Model.ICacheMissPenalty +
					float64(coldPages)*c.Model.ITLBMissPenalty
			}
		}
		if c.Cycles+total >= c.Timer.Next {
			return 0, false
		}
	}
	return cyc, true
}

// applyBlock commits a block's precomputed deltas: cold-fetch misses
// (none when the block is warm), mispredict events, retired
// instructions, cycles, and the attribution address a stepwise pass
// would have left.
func applyBlock(c *cpu.Core, b *block, cyc float64, warm bool) {
	if !warm {
		c.FetchMark(b.fetch)
	}
	if b.misp > 0 {
		c.PMU.AddEvent(c.Mode, cpu.EventBrMispRetired, float64(b.misp))
	}
	c.RetireBulk(b.n, cyc)
	c.SetExecAddr(b.lastAddr)
}
