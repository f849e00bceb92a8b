package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// endToEnd is one end-to-end metric as BENCHMARK.json declares it.
type endToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareCmd reads the bounds from BENCHMARK.json in the working
// directory, the repository root.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench compare <parent results...> -- <change results...>")
		return 2
	}
	metrics, err := loadMetrics("BENCHMARK.json")
	var parent, change []record
	if err == nil {
		parent, err = loadRecords(args[:sep])
	}
	if err == nil {
		change, err = loadRecords(args[sep+1:])
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench compare: %v\n", err)
		return 1
	}
	if compare(stdout, metrics, parent, change) > 0 {
		return 1
	}
	return 0
}

func loadMetrics(path string) ([]endToEnd, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []endToEnd `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// loadRecords reads stored end-to-end results: files, or directories
// whose result-*.json files are read. Traced runs are skipped: their
// metrics are per-layer.
func loadRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		files := []string{p}
		if st, err := os.Stat(p); err == nil && st.IsDir() {
			files, _ = filepath.Glob(filepath.Join(p, "result-*.json"))
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var r record
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if !r.Trace {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no end-to-end results in %v", paths)
	}
	return out, nil
}

// verdict is the pairs rule's outcome for one workload and metric.
type verdict struct {
	parentQ, changeQ [3]float64 // first quartile, median, third quartile
	wins, pairs      int
	spread           float64 // parent's quartile distance over its median
	verdict          string
	parentN, changeN int
}

// judge applies the rule for one metric. Runs pair up in seed order.
// A gain needs the change to win at least nine tenths of the pairs,
// ties counting for neither, and the medians to differ by more than the
// parent's quartile distance. A regression is a change median worse
// than the parent's by more than the bound. When the parent's spread is
// wider than the bound the metric is unresolved, unless every change
// run is better than every parent run.
func judge(m endToEnd, parent, change []float64) verdict {
	v := verdict{parentN: len(parent), changeN: len(change)}
	q1, q2, q3 := quartiles(parent)
	v.parentQ = [3]float64{q1, q2, q3}
	c1, c2, c3 := quartiles(change)
	v.changeQ = [3]float64{c1, c2, c3}
	better := func(a, b float64) bool { // a better than b
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	v.pairs = min(len(parent), len(change))
	for i := 0; i < v.pairs; i++ {
		if better(change[i], parent[i]) {
			v.wins++
		}
	}
	v.spread = ratio(q3-q1, math.Abs(q2))
	worse := ratio(c2-q2, math.Abs(q2))
	if m.Better == "higher" {
		worse = -worse
	}
	// Every change run is better than every parent run when the change's
	// worst run beats the parent's best.
	allBetter := false
	if ps, cs := sorted(parent), sorted(change); len(ps) > 0 && len(cs) > 0 {
		if m.Better == "higher" {
			allBetter = cs[0] > ps[len(ps)-1]
		} else {
			allBetter = cs[len(cs)-1] < ps[0]
		}
	}
	switch {
	case v.spread > m.Bound && !allBetter:
		v.verdict = "unresolved"
	case worse > m.Bound:
		v.verdict = "REGRESSION"
	case 10*v.wins >= 9*v.pairs && v.pairs > 0 && better(c2, q2) && math.Abs(c2-q2) > q3-q1:
		v.verdict = "gain"
	default:
		v.verdict = "within bound"
	}
	return v
}

// compare prints one row per workload and metric and returns the number
// of regressions.
func compare(w io.Writer, metrics []endToEnd, parent, change []record) int {
	bySeed := func(rs []record) map[string][]record {
		m := make(map[string][]record)
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		for _, v := range m {
			sort.Slice(v, func(i, j int) bool { return v[i].Seed < v[j].Seed })
		}
		return m
	}
	p, c := bySeed(parent), bySeed(change)
	names := make([]string, 0, len(p))
	for k := range p {
		names = append(names, k)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(w, "%-14s %-22s %-32s %-32s %7s %6s %7s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "delta", "wins", "spread", "verdict")
	for _, wl := range names {
		pr, cr := p[wl], c[wl]
		if len(cr) == 0 {
			fmt.Fprintf(w, "%-14s no change runs\n", wl)
			continue
		}
		for _, m := range metrics {
			v := judge(m, metricValues(pr, m.Name), metricValues(cr, m.Name))
			if v.verdict == "REGRESSION" {
				regressions++
			}
			fmt.Fprintf(w, "%-14s %-22s %-32s %-32s %+6.1f%% %3d/%-2d %6.1f%%  %s (bound %.0f%%, n=%d/%d)\n",
				wl, m.Name, quart(v.parentQ, m.Unit), quart(v.changeQ, m.Unit),
				100*ratio(v.changeQ[1]-v.parentQ[1], math.Abs(v.parentQ[1])), v.wins, v.pairs, 100*v.spread,
				v.verdict, 100*m.Bound, v.parentN, v.changeN)
		}
		if f := failedRuns(pr) + failedRuns(cr); f > 0 {
			fmt.Fprintf(w, "%-14s %d run(s) had failed operations: a gain does not count\n", wl, f)
		}
	}
	return regressions
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedRuns(rs []record) int {
	n := 0
	for _, r := range rs {
		if !r.Result.Correct || r.Result.Failed > 0 {
			n++
		}
	}
	return n
}

func quart(q [3]float64, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g %.4g]", q[1], unit, q[0], q[2])
}
