package core

import (
	"fmt"

	"repro/internal/compiler"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// SweepConfig describes a factorial accuracy study: every combination
// of the listed factors is measured Runs times. It is the programmable
// form of the sweeps behind the paper's figures — package experiments
// uses specialized variants; library users get this one.
type SweepConfig struct {
	// Systems are the prebuilt measurement systems to sweep (one per
	// processor x stack combination under study). Each system's
	// kernel/infrastructure pair is reused across its cells.
	Systems []SweepSystem
	// Bench builds the benchmark per cell; nil defaults to the null
	// benchmark.
	Bench func() *Benchmark
	// Patterns to measure; unsupported (pattern, stack) combinations
	// are skipped, as in the paper. Defaults to all four.
	Patterns []Pattern
	// Opts are the harness optimization levels; defaults to O0-O3.
	Opts []compiler.OptLevel
	// Registers are the counter-set sizes; defaults to {1}. Cells
	// exceeding a processor's counters are skipped.
	Registers []int
	// Modes are the counting modes; defaults to user and user+kernel.
	Modes []MeasureMode
	// Runs is the repetition count per cell (default 10).
	Runs int
	// Seed individualizes the sweep.
	Seed uint64
}

// SweepSystem names one kernel+infrastructure under test.
type SweepSystem struct {
	Kernel *kernel.Kernel
	Infra  Infrastructure
}

// SweepRecord is one measurement with its factor levels — directly
// consumable by stats.ANOVA and CSV export.
type SweepRecord struct {
	Processor string
	Stack     string
	Pattern   string
	Opt       string
	Registers int
	Mode      string
	Run       int
	// Error is the instruction-count measurement error of counter 0.
	Error int64
}

// Levels returns the record's factor labels in SweepFactors order.
func (r SweepRecord) Levels() []string {
	return []string{r.Processor, r.Stack, r.Pattern, r.Opt,
		fmt.Sprintf("%d", r.Registers), r.Mode}
}

// SweepFactors names the columns of SweepRecord.Levels.
var SweepFactors = []string{"processor", "infrastructure", "pattern", "optlevel", "registers", "mode"}

// withDefaults fills unset sweep fields.
func (c SweepConfig) withDefaults() SweepConfig {
	if c.Bench == nil {
		c.Bench = NullBenchmark
	}
	if len(c.Patterns) == 0 {
		c.Patterns = AllPatterns
	}
	if len(c.Opts) == 0 {
		c.Opts = compiler.AllOptLevels
	}
	if len(c.Registers) == 0 {
		c.Registers = []int{1}
	}
	if len(c.Modes) == 0 {
		c.Modes = []MeasureMode{ModeUser, ModeUserKernel}
	}
	if c.Runs <= 0 {
		c.Runs = 10
	}
	return c
}

// Sweep runs the factorial study and returns one record per
// measurement, in deterministic order.
func Sweep(cfg SweepConfig) ([]SweepRecord, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Systems) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one system")
	}
	var out []SweepRecord
	var harnesses Harnesses
	for si, sys := range cfg.Systems {
		model := sys.Kernel.Model()
		for _, pat := range cfg.Patterns {
			if !pat.SupportedBy(sys.Infra) {
				continue
			}
			for _, opt := range cfg.Opts {
				for _, regs := range cfg.Registers {
					if regs > model.NumProgrammable {
						continue
					}
					for _, mode := range cfg.Modes {
						events := make([]cpu.Event, regs)
						for i := range events {
							events[i] = cpu.EventInstrRetired
						}
						seed := xrand.Mix(cfg.Seed, uint64(si), uint64(pat), uint64(opt), uint64(regs), uint64(mode))
						for run := 0; run < cfg.Runs; run++ {
							m, err := harnesses.Measure(sys.Kernel, sys.Infra, Request{
								Bench:   cfg.Bench(),
								Pattern: pat,
								Mode:    mode,
								Events:  events,
								Opt:     opt,
								Seed:    seed + uint64(run),
							})
							if err != nil {
								return nil, fmt.Errorf("core: sweep cell %s/%s/%s/%s/%d: %w",
									model.Tag, sys.Infra.Name(), pat.Code(), opt, regs, err)
							}
							out = append(out, SweepRecord{
								Processor: model.Tag,
								Stack:     sys.Infra.Name(),
								Pattern:   pat.Code(),
								Opt:       opt.String(),
								Registers: regs,
								Mode:      mode.String(),
								Run:       run,
								Error:     m.Error(0, mode),
							})
						}
					}
				}
			}
		}
	}
	return out, nil
}

// SweepObservations converts records of one mode into ANOVA
// observations over the paper's five factors (mode excluded — the
// paper analyzes the modes separately).
func SweepObservations(records []SweepRecord, mode MeasureMode) []stats.Observation {
	var obs []stats.Observation
	want := mode.String()
	for _, r := range records {
		if r.Mode != want {
			continue
		}
		obs = append(obs, stats.Observation{
			Levels: []string{r.Processor, r.Stack, r.Pattern, r.Opt, fmt.Sprintf("%d", r.Registers)},
			Y:      float64(r.Error),
		})
	}
	return obs
}
