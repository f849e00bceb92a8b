// Command bench is the repository's benchmark: four traffic mixes
// driven against real pcserved and pcfront processes, plus an
// in-process layer ladder that times each layer from outside.
//
// Run it from the repository root through bench/run.sh, which builds
// it with all build state kept under .bench_build/:
//
//	bash bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//	bash bench/run.sh compare <parent results...> -- <change results...>
//
// A run builds cmd/pcserved and cmd/pcfront (build time excluded),
// drives each workload (all four when --workload is omitted) through
// setup, a closed loop, an open loop and a correctness gate, prints a
// report on standard error and one JSON result line per workload on
// standard output, and stores each result under bench/out/. With
// --trace 1 it also replays the start of the workload's stream through
// the in-process ladder and reports the per-layer metrics instead of
// the end-to-end ones. It exits non-zero when any operation failed or
// any answer was wrong. compare applies the pairs rule to stored
// results, with the bounds in BENCHMARK.json. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	return runCmd(args, stdout, stderr)
}

func runCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (all when empty)")
	seed := fs.Uint64("seed", 1, "seed the request streams are generated from")
	seconds := fs.Int("seconds", 24, "measured seconds per workload, split between the closed and open loops")
	traceFlag := fs.Int("trace", 0, "1 also replays the stream through the in-process ladder and reports per-layer metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: want flags only, --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	trace := *traceFlag == 1
	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		ws = []*workload{w}
	}
	if err := runAll(ws, *seed, *seconds, trace, *out, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// errIncorrect reports a run in which an operation failed or an answer
// was wrong; its result line is still printed.
var errIncorrect = errors.New("some operations failed or answered wrongly")

func runAll(ws []*workload, seed uint64, seconds int, trace bool, out string, stdout, stderr io.Writer) error {
	if _, err := os.Stat(filepath.Join("cmd", "pcserved")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(".bench_build", "bin"))
	if err != nil {
		return err
	}
	if err := buildBinaries(bin); err != nil {
		return err
	}
	cfg := config{
		seed:    seed,
		seconds: seconds,
		trace:   trace,
		setups:  5,
		clients: min(runtime.NumCPU(), 4),
		start:   processStarter(bin),
		log:     stderr,
		out:     out,
	}
	var failed error
	for _, w := range ws {
		res, err := runWorkload(w, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for k, m := range res.Metrics {
			m.Value = finite(m.Value)
			res.Metrics[k] = m
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := writeRecord(out, record{Workload: w.name, Seed: seed, Trace: trace, Result: *res}); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			failed = errIncorrect
		}
	}
	return failed
}

// record is one stored run, the unit compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func writeRecord(dir string, r record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	suffix := ""
	if r.Trace {
		suffix = "-trace"
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("result-%s-s%d%s.json", r.Workload, r.Seed, suffix)), b, 0o644)
}
