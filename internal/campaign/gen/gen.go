// Package gen is the campaign program generator: a versioned, seeded
// source of randomized synthetic benchmarks whose ground-truth event
// counts are known analytically.
//
// The paper's micro-benchmarks (loop, array) are hand-written and
// narrow; the generator produces program shapes far off that path —
// branch tangles with skewed taken-probabilities, pointer-chase bodies
// sized to straddle i-cache lines and i-TLB pages, phase-shifting hot
// kernels, and PMU-probe-laced loops — while keeping every program
// analytically tractable: Truth computes the exact event vector a bare
// core produces, and ExpectedInstr the exact retired-instruction count,
// so campaign sweeps can audit measured confidence intervals against
// ground truth at scale.
//
// Determinism is a hard contract: a (version, class, seed, scale)
// tuple identifies one program, byte for byte, forever. Version bumps
// when the generation algorithm changes, so stored campaign findings
// remain reproducible against the generator that produced them.
package gen

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/xrand"
)

// Version is the generator algorithm version, part of every program's
// canonical spec. Any change to program construction must bump it.
const Version = 1

// Class names a generator program family.
type Class string

// The generator program families.
const (
	// ClassMix is general straight-line code: ALU runs, memory ops,
	// branches of every prediction outcome, and plain counted loops.
	ClassMix Class = "mix"
	// ClassBranch is a branch tangle with a per-program skewed taken
	// probability — the adversary for branch-event invariants.
	ClassBranch Class = "branch"
	// ClassChase is load-heavy code with oversized instruction
	// encodings, sized to straddle i-cache lines (and, at larger
	// scales, i-TLB pages), plus a memory-walking loop.
	ClassChase Class = "chase"
	// ClassPhase alternates two hot loop kernels at shifting code
	// placements — the Section 6 placement effect, repeatedly.
	ClassPhase Class = "phase"
	// ClassProbe laces code with RDPMC/RDTSC instructions (results
	// discarded), forcing loops down the stepwise execution path.
	ClassProbe Class = "probe"
)

// Classes lists the families in canonical order. Campaign sweeps cycle
// through this order, so it is part of the determinism contract.
var Classes = []Class{ClassMix, ClassBranch, ClassChase, ClassPhase, ClassProbe}

// ClassByName returns the class with the given name.
func ClassByName(name string) (Class, error) {
	for _, c := range Classes {
		if string(c) == name {
			return c, nil
		}
	}
	return "", fmt.Errorf("gen: unknown program class %q", name)
}

// classIndex returns the canonical index of c in Classes.
func classIndex(c Class) uint64 {
	for i, k := range Classes {
		if k == c {
			return uint64(i)
		}
	}
	return uint64(len(Classes))
}

// Scale bounds. Scale controls program size roughly linearly; the cap
// keeps the largest generated program small enough to measure quickly.
const (
	DefaultScale = 3
	MaxScale     = 64
)

// Base is the load address of standalone generated programs, matching
// the benchmark raw-program convention.
const Base = 0x4000

// Program is one generated benchmark: its identity (class, seed,
// scale) plus the generated body. The body is user-mode valid and
// fully deterministic — no VarWork, no syscalls, and counter probes
// only with discarded results — so its event counts are a pure
// function of (program, model, placement).
type Program struct {
	Class Class
	Seed  uint64
	Scale int
	// Code is the benchmark body, without a terminating Halt.
	Code []isa.Instr
}

// New generates the program identified by (class, seed, scale) under
// the current generator Version.
func New(class Class, seed uint64, scale int) (*Program, error) {
	if _, err := ClassByName(string(class)); err != nil {
		return nil, err
	}
	if err := checkScale(scale); err != nil {
		return nil, err
	}
	r := xrand.New(xrand.Mix(Version, classIndex(class), seed, uint64(scale)))
	p := &Program{Class: class, Seed: seed, Scale: scale}
	switch class {
	case ClassMix:
		p.Code = genMix(r, scale)
	case ClassBranch:
		p.Code = genBranch(r, scale)
	case ClassChase:
		p.Code = genChase(r, scale)
	case ClassPhase:
		p.Code = genPhase(r, scale)
	case ClassProbe:
		p.Code = genProbe(r, scale)
	}
	if err := p.Raw().Validate(true); err != nil {
		return nil, fmt.Errorf("gen: generated program invalid: %w", err)
	}
	return p, nil
}

// Parse parses a canonical program spec, "gen:v1:<class>:<seed>[:<scale>]",
// and generates the program. The scale defaults to DefaultScale, and
// Spec always renders it explicitly, so Parse(Spec()) round-trips.
func Parse(spec string) (*Program, error) {
	class, seed, scale, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return New(class, seed, scale)
}

// Canonical checks a program spec as Parse does — version, class, seed
// and scale — and returns its canonical spelling, Parse(spec).Spec(),
// without generating the program.
func Canonical(spec string) (string, error) {
	class, seed, scale, err := parseSpec(spec)
	if err != nil {
		return "", err
	}
	return formatSpec(class, seed, scale), nil
}

// parseSpec splits a program spec into the program's identity and
// checks each part.
func parseSpec(spec string) (Class, uint64, int, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 4 && len(parts) != 5 {
		return "", 0, 0, fmt.Errorf("gen: bad spec %q (want gen:v%d:<class>:<seed>[:<scale>])", spec, Version)
	}
	if parts[0] != "gen" {
		return "", 0, 0, fmt.Errorf("gen: bad spec %q", spec)
	}
	if parts[1] != fmt.Sprintf("v%d", Version) {
		return "", 0, 0, fmt.Errorf("gen: unsupported generator version %q (this build generates v%d)", parts[1], Version)
	}
	class, err := ClassByName(parts[2])
	if err != nil {
		return "", 0, 0, err
	}
	seed, err := strconv.ParseUint(parts[3], 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("gen: bad seed %q", parts[3])
	}
	scale := DefaultScale
	if len(parts) == 5 {
		scale, err = strconv.Atoi(parts[4])
		if err != nil {
			return "", 0, 0, fmt.Errorf("gen: bad scale %q", parts[4])
		}
	}
	if err := checkScale(scale); err != nil {
		return "", 0, 0, err
	}
	return class, seed, scale, nil
}

// checkScale reports a scale outside [1, MaxScale].
func checkScale(scale int) error {
	if scale < 1 || scale > MaxScale {
		return fmt.Errorf("gen: scale %d out of range [1,%d]", scale, MaxScale)
	}
	return nil
}

// Spec returns the canonical spec string identifying this program.
func (p *Program) Spec() string {
	return formatSpec(p.Class, p.Seed, p.Scale)
}

// formatSpec spells a program identity as its canonical spec.
func formatSpec(class Class, seed uint64, scale int) string {
	return fmt.Sprintf("gen:v%d:%s:%d:%d", Version, class, seed, scale)
}

// Raw returns the program as a standalone executable: body plus Halt at
// the benchmark base. This is the form Truth models and engine-exactness
// tests run.
func (p *Program) Raw() *isa.Program {
	code := make([]isa.Instr, 0, len(p.Code)+1)
	code = append(code, p.Code...)
	code = append(code, isa.Halt())
	return &isa.Program{Name: p.Spec(), Base: Base, Code: code}
}

// Benchmark adapts the program to the measurement pipeline. Branch
// targets are program-relative instruction indices, so Emit rebases
// them by the harness position. The benchmark name is the canonical
// spec, which is also its wire spelling.
func (p *Program) Benchmark() *core.Benchmark {
	code := p.Code
	return &core.Benchmark{
		Name: p.Spec(),
		Emit: func(b *isa.Builder) {
			off := b.Pos()
			for _, in := range code {
				if in.Op == isa.OpBranch {
					in.A += int64(off)
				}
				b.Emit(in)
			}
		},
		ExpectedInstr: p.ExpectedInstr(),
	}
}

// ExpectedInstr returns the exact retired-instruction count of the
// body (excluding the standalone Halt): the executed path only, so
// filler skipped by taken branches does not count. It is placement-
// and model-independent, which makes it the ground truth the campaign
// coverage audit checks measured CIs against.
func (p *Program) ExpectedInstr() int64 {
	return dynamicInstr(p.Code)
}

// dynamicInstr walks the executed path of straight-line code. Taken
// branches are forward by generator construction, so the walk is a
// single pass.
func dynamicInstr(code []isa.Instr) int64 {
	var total int64
	pc := 0
	for pc < len(code) {
		in := code[pc]
		switch in.Op {
		case isa.OpLoop:
			var bodyRetire int64
			for _, bi := range code[pc+1 : pc+1+int(in.B)] {
				bodyRetire += int64(bi.Retires())
			}
			total += in.A * bodyRetire
			pc += 1 + int(in.B)
		case isa.OpBranch:
			total++
			if in.B != 0 {
				pc = int(in.A)
			} else {
				pc++
			}
		default:
			total += int64(in.Retires())
			pc++
		}
	}
	return total
}

// CycleBudget returns a declared upper bound on the cycles one bare-core
// execution of Raw() takes on the given model. The bound is structural —
// derived from instruction counts and worst-case per-instruction costs,
// not from simulating the program — so the property test that every
// program finishes within budget is a real termination check.
func (p *Program) CycleBudget(m *cpu.Model) float64 {
	c := cpu.NewCore(m)
	maxCost := 0.0
	for _, cl := range []cpu.Class{cpu.ClassALU, cpu.ClassMem, cpu.ClassBranch, cpu.ClassRDPMC, cpu.ClassRDTSC} {
		if cost := c.ClassCost(cl); cost > maxCost {
			maxCost = cost
		}
	}
	raw := p.Raw()
	dyn := float64(p.ExpectedInstr() + 1) // + the Halt
	// Per retired instruction: worst class cost, plus the worst
	// per-iteration loop overhead (straddle, placement quirk, memory
	// term — all bounded by their model constants plus one cycle).
	budget := dyn * (maxCost + m.LoopBaseCycles + m.StraddleCycles + m.PlacementQuirkMax + 1)
	// Every retire could at worst mispredict; loops add two more each.
	budget += (dyn + 2*float64(len(raw.Code))) * m.MispredictPenalty
	// Cold front-end penalties: one per distinct line/page touched.
	bytes := float64(raw.ByteSize())
	budget += (bytes/64 + 2) * m.ICacheMissPenalty
	budget += (bytes/4096 + 2) * m.ITLBMissPenalty
	return budget
}

// sized occasionally randomizes an instruction's encoded size, feeding
// the placement model.
func sized(in isa.Instr, r *xrand.Rand) isa.Instr {
	if r.Intn(4) == 0 {
		in.Size = uint8(1 + r.Intn(15))
	}
	return in
}

// plainLoopBody builds a 3-5 instruction loop body of plain retiring
// ops closed by the conventional fall-through loop branch — eligible
// for the simulator's analytic fast-forward.
func plainLoopBody(r *xrand.Rand) []isa.Instr {
	n := 2 + r.Intn(3)
	body := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		var in isa.Instr
		switch r.Intn(3) {
		case 0:
			in = isa.ALU()
		case 1:
			in = isa.Load()
		default:
			in = isa.Store()
		}
		in.Size = uint8(2 + r.Intn(5))
		body = append(body, in)
	}
	jne := isa.Branch(0, true)
	body = append(body, jne)
	return body
}

// genMix emits general straight-line code: the widest vocabulary.
func genMix(r *xrand.Rand, scale int) []isa.Instr {
	var code []isa.Instr
	sites := 16 + 8*scale
	for s := 0; s < sites; s++ {
		switch r.Intn(10) {
		case 0, 1, 2:
			for n := 1 + r.Intn(4); n > 0; n-- {
				code = append(code, sized(isa.ALU(), r))
			}
		case 3:
			code = append(code, sized(isa.Load(), r))
		case 4:
			code = append(code, sized(isa.Store(), r))
		case 5:
			code = append(code, isa.Nop())
		case 6:
			// Forward taken branch over filler: mispredicted (static
			// not-taken prediction for forward branches).
			k := 1 + r.Intn(3)
			code = append(code, isa.Branch(len(code)+1+k, true))
			for ; k > 0; k-- {
				code = append(code, isa.ALU())
			}
		case 7:
			// Forward not-taken: correctly predicted.
			code = append(code, isa.Branch(len(code)+1, false))
		case 8:
			// Backward target, not taken: mispredicts without looping.
			code = append(code, isa.Branch(r.Intn(len(code)+1), false))
		case 9:
			// Plain counted loop, occasionally with zero iterations.
			iters := int64(r.Intn(128))
			body := plainLoopBody(r)
			code = append(code, isa.Loop(iters, len(body)))
			code = append(code, body...)
		}
	}
	return code
}

// genBranch emits a branch tangle with a per-program skewed taken
// probability.
func genBranch(r *xrand.Rand, scale int) []isa.Instr {
	var code []isa.Instr
	pTaken := float64(1+r.Intn(9)) / 10 // 10%..90%, fixed per program
	sites := 12 + 8*scale
	for s := 0; s < sites; s++ {
		for n := r.Intn(3); n > 0; n-- {
			code = append(code, isa.ALU())
		}
		switch {
		case r.Float64() < pTaken:
			k := 1 + r.Intn(4)
			code = append(code, isa.Branch(len(code)+1+k, true))
			for ; k > 0; k-- {
				code = append(code, isa.Nop())
			}
		case r.Intn(4) == 0:
			code = append(code, isa.Branch(r.Intn(len(code)+1), false))
		default:
			code = append(code, isa.Branch(len(code)+1, false))
		}
	}
	return code
}

// genChase emits load-heavy code with oversized encodings so the
// footprint strides across i-cache lines — and past scale ~16, across
// i-TLB pages — then a memory-walking loop for d-cache events.
func genChase(r *xrand.Rand, scale int) []isa.Instr {
	var code []isa.Instr
	for seg := 0; seg < scale; seg++ {
		for j := 0; j < 18; j++ {
			ld := isa.Load()
			ld.Size = uint8(9 + r.Intn(7))
			code = append(code, ld)
		}
		for j := 0; j < 4; j++ {
			a := isa.ALU()
			a.Size = uint8(8 + r.Intn(8))
			code = append(code, a)
		}
	}
	iters := int64(32 * (1 + r.Intn(4)))
	ld := isa.Load()
	ld.Size = 3
	add := isa.ALU()
	add.Size = 3
	st := isa.Store()
	st.Size = 4
	jne := isa.Branch(0, true)
	body := []isa.Instr{ld, add, st, jne}
	code = append(code, isa.Loop(iters, len(body)))
	code = append(code, body...)
	return code
}

// genPhase alternates an ALU-hot and a memory-hot loop kernel, each at
// a fresh placement, so per-iteration costs shift between phases.
func genPhase(r *xrand.Rand, scale int) []isa.Instr {
	var code []isa.Instr
	for ph := 0; ph < 2*scale; ph++ {
		for n := r.Intn(4); n > 0; n-- {
			a := isa.ALU()
			a.Size = uint8(1 + r.Intn(8))
			code = append(code, a)
		}
		iters := int64(24 + r.Intn(100))
		var body []isa.Instr
		if ph%2 == 0 {
			a1 := isa.ALU()
			a1.Size = 3
			a2 := isa.ALU()
			a2.Size = 5
			jne := isa.Branch(0, true)
			body = []isa.Instr{a1, a2, jne}
		} else {
			ld := isa.Load()
			ld.Size = 3
			st := isa.Store()
			st.Size = 4
			a := isa.ALU()
			a.Size = 3
			jne := isa.Branch(0, true)
			body = []isa.Instr{ld, st, a, jne}
		}
		code = append(code, isa.Loop(iters, len(body)))
		code = append(code, body...)
	}
	return code
}

// genProbe laces code with discarded-result counter reads. Probe-laced
// loop bodies are not plain, forcing the stepwise execution path; a
// backward-target not-taken branch in a body mispredicts every
// iteration.
func genProbe(r *xrand.Rand, scale int) []isa.Instr {
	var code []isa.Instr
	sites := 8 + 6*scale
	for s := 0; s < sites; s++ {
		switch r.Intn(8) {
		case 0, 1:
			for n := 1 + r.Intn(3); n > 0; n-- {
				code = append(code, isa.ALU())
			}
		case 2:
			code = append(code, isa.RDPMC(r.Intn(2), isa.NoSlot))
		case 3:
			code = append(code, isa.RDTSC(isa.NoSlot))
		case 4:
			code = append(code, isa.Load())
		case 5:
			iters := int64(2 + r.Intn(12))
			var body []isa.Instr
			if r.Intn(2) == 0 {
				body = []isa.Instr{isa.ALU(), isa.RDPMC(0, isa.NoSlot)}
			} else {
				body = []isa.Instr{isa.RDTSC(isa.NoSlot), isa.Load(), isa.Branch(0, false)}
			}
			code = append(code, isa.Loop(iters, len(body)))
			code = append(code, body...)
		case 6:
			k := 1 + r.Intn(3)
			code = append(code, isa.Branch(len(code)+1+k, true))
			for ; k > 0; k-- {
				code = append(code, isa.ALU())
			}
		case 7:
			code = append(code, isa.Nop())
		}
	}
	return code
}
