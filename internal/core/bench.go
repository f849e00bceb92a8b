package core

import (
	"fmt"

	"repro/internal/isa"
)

// Benchmark is a micro-benchmark with analytically known event counts
// (Section 3.4). Emit appends the benchmark's instructions to a program
// under construction; ExpectedInstr is the ground-truth retired
// instruction count used to compute the measurement error.
//
// Name and Iterations identify the body Emit appends: two benchmarks
// with the same name and iteration count emit the same instructions.
// The constructors keep this — null, loop and array by name and trip
// count, a generated program by its canonical spec — and the harness
// memo (Harnesses) relies on it. A benchmark built another way must
// keep it too.
type Benchmark struct {
	// Name identifies the benchmark ("null", "loop").
	Name string
	// Emit appends the benchmark body.
	Emit func(b *isa.Builder)
	// ExpectedInstr is the exact instruction count the body retires.
	ExpectedInstr int64
	// Iterations is the loop trip count (0 for the null benchmark);
	// recorded so duration studies can regress error on it.
	Iterations int64
}

// String returns a short description.
func (bm *Benchmark) String() string {
	if bm.Iterations > 0 {
		return fmt.Sprintf("%s(%d)", bm.Name, bm.Iterations)
	}
	return bm.Name
}

// NullBenchmark returns the empty benchmark: zero instructions, so every
// counted event is measurement error (Section 4).
func NullBenchmark() *Benchmark {
	return &Benchmark{
		Name:          "null",
		Emit:          func(b *isa.Builder) {},
		ExpectedInstr: 0,
	}
}

// Loop body encoding: the paper's gcc inline assembly (Figure 3)
//
//	movl $0, %eax        ; 5 bytes, once
//	.loop: addl $1, %eax ; 3 bytes
//	cmpl $MAX, %eax      ; 5 bytes
//	jne .loop            ; 2 bytes
//
// retires 1 + 3*MAX instructions. Byte sizes matter: they determine
// whether the 10-byte body straddles a fetch-window boundary, the
// placement effect of Section 6.
const (
	loopInitBytes    = 5
	loopAddBytes     = 3
	loopCmpBytes     = 5
	loopJneBytes     = 2
	loopBodyBytes    = loopAddBytes + loopCmpBytes + loopJneBytes
	loopInstrPerIter = 3
)

// LoopBodyBytes is the encoded size of the loop body, exported for
// placement-model tests.
const LoopBodyBytes = loopBodyBytes

// LoopBenchmark returns the paper's loop micro-benchmark with the given
// iteration count: exactly 1 + 3*iters retired instructions
// (ie = 1 + 3l, Section 5).
func LoopBenchmark(iters int64) *Benchmark {
	if iters < 0 {
		iters = 0
	}
	return &Benchmark{
		Name: "loop",
		Emit: func(b *isa.Builder) {
			init := isa.ALU()
			init.Size = loopInitBytes
			b.Emit(init)
			b.Loop(iters, func(body *isa.Builder) {
				add := isa.ALU()
				add.Size = loopAddBytes
				cmp := isa.ALU()
				cmp.Size = loopCmpBytes
				jne := isa.Branch(0, true)
				jne.Size = loopJneBytes
				body.Emit(add, cmp, jne)
			})
		},
		ExpectedInstr: 1 + loopInstrPerIter*iters,
		Iterations:    iters,
	}
}

// ExpectedLoopInstr is the paper's analytical model ie = 1 + 3l.
func ExpectedLoopInstr(iters int64) int64 { return 1 + loopInstrPerIter*iters }

// RawProgram builds the benchmark as a bare program — body plus halt,
// no measurement harness. This is the form consumed by observers that
// watch the PMU directly rather than through a counter-access stack:
// the multiplexing and sampling models, and the planner's raw-domain
// reference runs. Counts measured on a raw program include no
// infrastructure overhead, so no calibration offset applies to them.
func (bm *Benchmark) RawProgram() *isa.Program {
	b := isa.NewBuilder("raw-"+bm.Name, 0x4000)
	bm.Emit(b)
	b.Emit(isa.Halt())
	return b.Build()
}

// ArrayBenchmark returns a loop that walks an array in memory — the
// third micro-benchmark of Korn, Teller, and Castillo's study discussed
// in the paper's related work, and the workload whose cycle count is
// sensitive to CPU frequency scaling (memory latency is fixed in wall
// time, so its cost in cycles tracks the clock). It retires exactly
// 1 + 4*iters instructions: load, add, cmp, jne per iteration.
func ArrayBenchmark(iters int64) *Benchmark {
	if iters < 0 {
		iters = 0
	}
	return &Benchmark{
		Name: "array",
		Emit: func(b *isa.Builder) {
			init := isa.ALU()
			init.Size = loopInitBytes
			b.Emit(init)
			b.Loop(iters, func(body *isa.Builder) {
				ld := isa.Load()
				ld.Size = 3
				add := isa.ALU()
				add.Size = loopAddBytes
				cmp := isa.ALU()
				cmp.Size = loopCmpBytes
				jne := isa.Branch(0, true)
				jne.Size = loopJneBytes
				body.Emit(ld, add, cmp, jne)
			})
		},
		ExpectedInstr: 1 + 4*iters,
		Iterations:    iters,
	}
}
