package stack

import (
	"testing"

	"repro/internal/campaign/gen"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
)

func TestNewAllCodes(t *testing.T) {
	for _, m := range cpu.AllModels {
		for _, code := range Codes {
			s, err := New(m, code, DefaultOptions)
			if err != nil {
				t.Errorf("%s/%s: %v", m.Tag, code, err)
				continue
			}
			if s.Infra.Name() != code {
				t.Errorf("%s: infra name %q", code, s.Infra.Name())
			}
			if s.Kernel.Model() != m {
				t.Error("kernel bound to wrong model")
			}
		}
	}
}

func TestNewUnknownCode(t *testing.T) {
	if _, err := New(cpu.Athlon64X2, "zz", DefaultOptions); err == nil {
		t.Error("unknown code accepted")
	}
	if _, err := New(cpu.Athlon64X2, "x", DefaultOptions); err == nil {
		t.Error("short code accepted")
	}
}

func TestBackendParsing(t *testing.T) {
	for code, want := range map[string]string{
		"pm": "pm", "pc": "pc",
		"PLpm": "pm", "PLpc": "pc",
		"PHpm": "pm", "PHpc": "pc",
	} {
		s, err := New(cpu.Core2Duo, code, DefaultOptions)
		if err != nil {
			t.Fatal(err)
		}
		if s.Infra.Backend() != want {
			t.Errorf("%s: backend %q, want %q", code, s.Infra.Backend(), want)
		}
	}
}

func TestGovernorOption(t *testing.T) {
	s, err := New(cpu.PentiumD, "pm", Options{WithTSC: true, Governor: kernel.Powersave})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kernel.Governor() != kernel.Powersave {
		t.Error("governor option not applied")
	}
}

func TestSystemMeasure(t *testing.T) {
	s, err := New(cpu.Athlon64X2, "PLpm", DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Measure(core.Request{Bench: core.LoopBenchmark(1000), Pattern: core.StartRead, Mode: core.ModeUser, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Deltas[0] < m.Expected {
		t.Errorf("measured %d below ground truth %d", m.Deltas[0], m.Expected)
	}
}

// TestHarnessMemo: a system keeps one harness per shape it measures —
// counter count, pattern, opt level and benchmark — and a stream of
// distinct generated programs never grows the memo past its bound.
func TestHarnessMemo(t *testing.T) {
	s, err := New(cpu.Athlon64X2, "pc", DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(req core.Request) {
		t.Helper()
		if _, err := s.Measure(req); err != nil {
			t.Fatal(err)
		}
	}
	loop := core.Request{Bench: core.LoopBenchmark(100), Pattern: core.ReadRead, Seed: 1}
	two := loop
	two.Events = []cpu.Event{cpu.EventInstrRetired, cpu.EventCoreCycles}
	for i, step := range []struct {
		req  core.Request
		want int
	}{{loop, 1}, {loop, 1}, {two, 2}, {loop, 2}} {
		step.req.Seed = uint64(i)
		measure(step.req)
		if got := s.harnesses.Len(); got != step.want {
			t.Fatalf("step %d: memo holds %d harnesses, want %d", i, got, step.want)
		}
	}

	for seed := uint64(0); seed < 1000; seed++ {
		p, err := gen.New(gen.ClassMix, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		measure(core.Request{Bench: p.Benchmark(), Pattern: core.StartRead, Seed: 1})
		if got := s.harnesses.Len(); got > core.HarnessMemoSize {
			t.Fatalf("after %d generated programs the memo holds %d harnesses, bound %d", seed+1, got, core.HarnessMemoSize)
		}
	}
	if got := s.harnesses.Len(); got != core.HarnessMemoSize {
		t.Errorf("memo holds %d harnesses after 1,000 programs, want it full at %d", got, core.HarnessMemoSize)
	}
}
