package repro_test

// Race audit of the facade, run routinely under -race in CI: the
// simulator keeps all mutable state inside each System (kernel, core,
// PMU, infrastructure), the experiment registry and event/model tables
// are immutable after init, and the kernel handler programs systems
// share are immutable once built. These tests pin that property — the
// foundation the pooling service (internal/service) builds on. A
// single System is NOT safe for concurrent use; pools serialize access
// per system.

import (
	"io"
	"reflect"
	"sync"
	"testing"

	"repro"
)

// TestConcurrentDistinctSystems drives many systems in parallel —
// including two on the same (processor, stack) configuration — and
// checks results match a sequential rerun.
func TestConcurrentDistinctSystems(t *testing.T) {
	configs := []struct {
		proc  repro.Processor
		stack string
	}{
		{repro.K8, repro.StackPC},
		{repro.K8, repro.StackPC}, // same configuration twice: shared handlers only
		{repro.K8, repro.StackPM},
		{repro.CD, repro.StackPLpc},
		{repro.CD, repro.StackPHpm},
		{repro.PD, repro.StackPC},
	}
	req := repro.Request{
		Bench:   repro.LoopBenchmark(2000),
		Pattern: repro.StartRead,
		Mode:    repro.ModeUser,
	}

	parallel := make([][]int64, len(configs))
	var wg sync.WaitGroup
	for i, cfg := range configs {
		wg.Add(1)
		go func(i int, proc repro.Processor, stack string) {
			defer wg.Done()
			sys, err := repro.NewSystem(proc, stack)
			if err != nil {
				t.Errorf("NewSystem(%s, %s): %v", proc, stack, err)
				return
			}
			errs, err := sys.MeasureN(req, 5, 1)
			if err != nil {
				t.Errorf("MeasureN(%s, %s): %v", proc, stack, err)
				return
			}
			parallel[i] = errs
		}(i, cfg.proc, cfg.stack)
	}
	wg.Wait()

	for i, cfg := range configs {
		sys, err := repro.NewSystem(cfg.proc, cfg.stack)
		if err != nil {
			t.Fatal(err)
		}
		sequential, err := sys.MeasureN(req, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parallel[i], sequential) {
			t.Errorf("config %d (%s/%s): parallel %v != sequential %v",
				i, cfg.proc, cfg.stack, parallel[i], sequential)
		}
	}
}

// TestConcurrentExperiments runs paper experiments in parallel; each
// builds its own systems, so runs must neither race nor interfere.
func TestConcurrentExperiments(t *testing.T) {
	ids := []string{"table1", "table2", "fig4", "fig4"} // duplicate: no sharing
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if _, err := repro.RunExperiment(id, io.Discard, repro.Quick); err != nil {
				t.Errorf("RunExperiment(%s): %v", id, err)
			}
		}(id)
	}
	wg.Wait()
}

// TestResetRestoresBootBehavior checks System.Reset erases execution
// history: a reset system reproduces a fresh system's measurements
// exactly, even for cycle counts whose fractional accumulation is the
// subtlest cross-run leak.
func TestResetRestoresBootBehavior(t *testing.T) {
	req := repro.Request{
		Bench:   repro.LoopBenchmark(1500),
		Pattern: repro.ReadRead,
		Mode:    repro.ModeUser,
		Events:  []repro.Event{repro.EventCycles},
		Seed:    11,
	}

	fresh, err := repro.NewSystem(repro.CD, repro.StackPC)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Measure(req)
	if err != nil {
		t.Fatal(err)
	}

	used, err := repro.NewSystem(repro.CD, repro.StackPC)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the system with unrelated traffic, then reset.
	for i := 0; i < 3; i++ {
		if _, err := used.Measure(repro.Request{
			Bench:   repro.ArrayBenchmark(333),
			Pattern: repro.StartStop,
			Mode:    repro.ModeUserKernel,
			Events:  []repro.Event{repro.EventCycles},
			Seed:    uint64(100 + i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	used.Reset()
	got, err := used.Measure(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reset system diverges from fresh system:\ngot  %+v\nwant %+v", got, want)
	}

	// Calibration is deterministic too — the property the service's
	// calibration cache relies on.
	used.Reset()
	c1, err := used.Calibrate(repro.ReadRead, repro.ModeUser, repro.O2, 9, 77)
	if err != nil {
		t.Fatal(err)
	}
	fresh2, err := repro.NewSystem(repro.CD, repro.StackPC)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := fresh2.Calibrate(repro.ReadRead, repro.ModeUser, repro.O2, 9, 77)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("calibration not deterministic: %+v vs %+v", c1, c2)
	}
}
