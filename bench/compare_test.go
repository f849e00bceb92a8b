package main

import (
	"io"
	"strings"
	"testing"
)

func series(base, step float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = base + step*float64(i%5) // five levels, so quartiles are spread
	}
	return out
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestJudge(t *testing.T) {
	higher := endToEnd{Name: "throughput_rps", Better: "higher", Bound: 0.1}
	lower := endToEnd{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	steady := series(100, 1) // spread about 2%
	noisy := series(100, 12) // spread about 24%, wider than the bound
	for _, c := range []struct {
		name           string
		m              endToEnd
		parent, change []float64
		want           string
	}{
		{"faster throughput wins every pair", higher, steady, scaled(steady, 1.2), "gain"},
		{"lower latency wins every pair", lower, steady, scaled(steady, 0.8), "gain"},
		{"small change stays within bound", higher, steady, scaled(steady, 0.97), "within bound"},
		{"throughput drop past the bound", higher, steady, scaled(steady, 0.85), "REGRESSION"},
		{"latency rise past the bound", lower, steady, scaled(steady, 1.15), "REGRESSION"},
		{"spread wider than the bound", higher, noisy, scaled(noisy, 0.8), "unresolved"},
		{"every change run better than every parent run", higher, noisy, scaled(noisy, 2), "gain"},
		{"ties count for neither side", higher, steady, steady, "within bound"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if v := judge(c.m, c.parent, c.change); v.verdict != c.want {
				t.Errorf("verdict %q (wins %d/%d, spread %.3f), want %q", v.verdict, v.wins, v.pairs, v.spread, c.want)
			}
		})
	}
}

// TestCompare checks that a regression on one workload is counted and
// shows in that workload's rows only, and that stored results load back
// with traced runs left out.
func TestCompare(t *testing.T) {
	metrics := []endToEnd{
		{Name: "throughput_rps", Unit: "req/s", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}
	rec := func(workload string, seed uint64, rps float64) record {
		return record{Workload: workload, Seed: seed, Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metric{"throughput_rps": {rps, "req/s"}, "setup_s": {0.5, "s"}}}}
	}
	var parent, change []record
	for seed := uint64(0); seed < 10; seed++ {
		v := 1000 + float64(seed%5)
		parent = append(parent, rec("measure-small", seed, v), rec("measure-long", seed, v))
		change = append(change, rec("measure-small", seed, v*0.99), rec("measure-long", seed, v*0.7))
	}
	var out strings.Builder
	if n := compare(&out, metrics, parent, change); n != 1 {
		t.Errorf("%d regressions, want 1\n%s", n, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.Contains(line, "throughput_rps") {
			continue
		}
		regressed := strings.Contains(line, "REGRESSION")
		if strings.HasPrefix(line, "measure-long") != regressed {
			t.Errorf("unexpected row: %s", line)
		}
	}

	dir := t.TempDir()
	traced := rec("measure-small", 99, 1)
	traced.Trace = true
	for _, r := range append(parent[:2:2], traced) {
		if err := writeRecord(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := loadRecords([]string{dir})
	if err != nil || len(loaded) != 2 {
		t.Errorf("loaded %d records (%v), want the 2 untraced ones", len(loaded), err)
	}

	if code := compareCmd([]string{dir}, io.Discard, io.Discard); code != 2 {
		t.Errorf("missing -- separator: exit code %d, want 2", code)
	}
}
