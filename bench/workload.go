package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// kind is the endpoint an operation drives.
type kind int

const (
	kindMeasure kind = iota
	kindAnalyze
	kindPlan
	kindInfer
	// kindSession is POST /sessions followed by reading
	// GET /sessions/{id}/stream to its end event: one operation, two
	// HTTP requests.
	kindSession
)

func (k kind) path() string {
	return [...]string{"/measure", "/analyze", "/plan", "/infer", "/sessions"}[k]
}

// op is one generated operation: the request body the program receives
// and what the benchmark needs to check its answer.
type op struct {
	kind kind
	body []byte
	// bench is the benchmark spec of the operation's measurement, for
	// the analytic-truth check.
	bench string
	// hot is the operation's index in the workload's pool of repeated
	// bodies, or -1 for a body generated once.
	hot int
}

// shape is an operation with its request seed left open: the warm-up
// set issues one operation per shape. A "%d" in bench is replaced by a
// generated-program seed.
type shape struct {
	kind kind
	// variant selects the /analyze item: 0 multiplexed, 1 sampling,
	// 2 duet against the null benchmark.
	variant int
	proc    string
	stack   string
	pattern string
	bench   string
}

// workload is one traffic mix. Every field is fixed for every commit:
// a change that claims a gain may not edit the benchmark.
type workload struct {
	name string
	// cluster sends the traffic through pcfront over three pcserved
	// nodes instead of to one node.
	cluster bool
	// rate is the open-loop arrival rate in operations per second: a
	// quarter of the median closed-loop throughput of three runs at the
	// commit that defined the benchmark, rounded down to 50.
	rate float64
	// shapes is the warm-up set: one operation per distinct request
	// shape, request seeds aside.
	shapes []shape
	// choose picks operation i's shape; nil picks uniformly from shapes.
	choose func(r *rng, i int) shape
	// genSeeds is how many generated-program seeds "%d" ranges over.
	genSeeds int
	// hotPool and hotShare describe repeated traffic: a hotShare
	// fraction of operations is drawn from hotPool fixed bodies.
	hotPool  int
	hotShare float64
}

// Seed domains keep the request seeds of different streams disjoint.
const (
	domainStream = iota + 1
	domainWarm
	domainHot
	domainOpen
	domainSample
)

// op returns operation i of the workload's stream for a seed. It is a
// pure function of (seed, i), so clients can generate operations
// concurrently and the trace ladder can replay the stream's start.
func (w *workload) op(seed uint64, i int) op {
	r := newRNG(seed, domainStream, uint64(i))
	if w.hotPool > 0 && r.float() < w.hotShare {
		h := r.intn(w.hotPool)
		o := w.fresh(newRNG(seed, domainHot, uint64(h)), h, requestSeed(seed, domainHot, uint64(h)))
		o.hot = h
		return o
	}
	return w.fresh(r, i, requestSeed(seed, domainStream, uint64(i)))
}

func (w *workload) fresh(r *rng, i int, reqSeed uint64) op {
	var s shape
	if w.choose != nil {
		s = w.choose(r, i)
	} else {
		s = w.shapes[r.intn(len(w.shapes))]
	}
	g := 0
	if w.genSeeds > 0 {
		g = r.intn(w.genSeeds)
	}
	return s.op(reqSeed, g)
}

// warmup returns the warm-up set for a seed: one operation per shape.
func (w *workload) warmup(seed uint64) []op {
	ops := make([]op, len(w.shapes))
	for k, s := range w.shapes {
		ops[k] = s.op(requestSeed(seed, domainWarm, uint64(k)), 0)
	}
	return ops
}

// requestSeed is a request's "seed" field: distinct for every (domain,
// index) of one benchmark seed, because mix64 is a bijection.
func requestSeed(seed uint64, domain int, i uint64) uint64 {
	return mix64(mix64(seed) + uint64(domain)<<40 + i)
}

// Wire bodies are built from the benchmark's own types, so the bytes
// the program receives do not change when its internal types do.
type measureBody struct {
	Processor string   `json:"processor"`
	Stack     string   `json:"stack"`
	Bench     string   `json:"bench"`
	Pattern   string   `json:"pattern,omitempty"`
	Events    []string `json:"events,omitempty"`
	Runs      int      `json:"runs,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	Calibrate bool     `json:"calibrate,omitempty"`
}

type analyzeItem struct {
	Measure        measureBody  `json:"measure"`
	MpxCounters    int          `json:"mpxCounters,omitempty"`
	SamplingPeriod int64        `json:"samplingPeriod,omitempty"`
	Duet           *measureBody `json:"duet,omitempty"`
}

type planBody struct {
	Measure        measureBody `json:"measure"`
	TargetRelWidth float64     `json:"targetRelWidth"`
	PilotRuns      int         `json:"pilotRuns"`
	MaxRuns        int         `json:"maxRuns"`
}

type inferInput struct {
	Measure measureBody `json:"measure"`
}

type sessionBody struct {
	Measure    measureBody `json:"measure"`
	Steps      int         `json:"steps"`
	WindowSize int         `json:"windowSize"`
}

// runs is the repetition count of every measured operation.
const runs = 3

func (s shape) op(reqSeed uint64, genSeed int) op {
	bench := s.bench
	if strings.Contains(bench, "%d") {
		bench = fmt.Sprintf(bench, genSeed)
	}
	m := measureBody{Processor: s.proc, Stack: s.stack, Bench: bench, Pattern: s.pattern, Runs: runs, Seed: reqSeed}
	var v any
	switch s.kind {
	case kindMeasure:
		m.Calibrate = true
		v = m
	case kindAnalyze:
		it := analyzeItem{Measure: m}
		switch s.variant {
		case 0:
			it.Measure.Events = []string{"INSTR_RETIRED", "CPU_CLK_UNHALTED"}
			it.MpxCounters = 1
		case 1:
			it.SamplingPeriod = 10000
		default:
			it.Duet = &measureBody{Processor: s.proc, Stack: s.stack, Bench: "null", Pattern: s.pattern}
		}
		v = map[string]any{"items": []analyzeItem{it}}
	case kindPlan:
		m.Runs = 0
		v = planBody{Measure: m, TargetRelWidth: 0.25, PilotRuns: 2, MaxRuns: 8}
	case kindInfer:
		m.Calibrate = true
		v = map[string]any{"items": []map[string]any{{"inputs": []inferInput{{Measure: m}}}}}
	case kindSession:
		m.Runs = 0
		v = sessionBody{Measure: m, Steps: 16, WindowSize: 8}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own fixed types always marshal
	}
	return op{kind: s.kind, body: body, bench: bench, hot: -1}
}

var (
	processors   = []string{"K8", "CD", "PD"}
	patterns     = []string{"ar", "ao", "rr", "ro"}
	directStacks = []string{"pc", "pm"}
)

// smallShapes is measure-small's request space: 126 shapes, whose
// harnesses fit the 256-entry compile cache.
func smallShapes() []shape {
	var out []shape
	for _, b := range []string{"null", "loop:1000", "array:500"} {
		for _, p := range processors {
			for _, st := range []string{"pc", "pm", "PLpc", "PHpm"} {
				pats := patterns
				if strings.HasPrefix(st, "PH") {
					pats = patterns[:2] // PAPI high-level rejects rr/ro
				}
				for _, pat := range pats {
					out = append(out, shape{kind: kindMeasure, proc: p, stack: st, pattern: pat, bench: b})
				}
			}
		}
	}
	return out
}

func longShapes() []shape {
	var out []shape
	for _, b := range []string{"loop:100000000", "array:100000000", "gen:v1:branch:%d:64", "gen:v1:probe:%d:64"} {
		for _, p := range processors {
			for _, st := range directStacks {
				out = append(out, shape{kind: kindMeasure, proc: p, stack: st, pattern: "ar", bench: b})
			}
		}
	}
	return out
}

// mixSlots is analyze-mix's cycle of ten operations: four /analyze
// (rotating multiplexed, sampling, duet), two /plan, two /infer, one
// /measure and one session.
var mixSlots = []kind{kindAnalyze, kindAnalyze, kindAnalyze, kindAnalyze, kindPlan, kindPlan, kindInfer, kindInfer, kindMeasure, kindSession}

var mixBenches = []string{"loop:100000", "array:50000", "gen:v1:mix:%d:8"}

func mixShapes() []shape {
	kinds := []shape{{kind: kindAnalyze}, {kind: kindAnalyze, variant: 1}, {kind: kindAnalyze, variant: 2},
		{kind: kindPlan}, {kind: kindInfer}, {kind: kindMeasure}, {kind: kindSession}}
	var out []shape
	for _, s := range kinds {
		for _, p := range processors {
			for _, st := range directStacks {
				for _, b := range mixBenches {
					s.proc, s.stack, s.pattern, s.bench = p, st, "ar", b
					out = append(out, s)
				}
			}
		}
	}
	return out
}

func chooseMix(r *rng, i int) shape {
	k := mixSlots[i%len(mixSlots)]
	variant := 0
	if k == kindAnalyze {
		// The n-th /analyze of the stream takes variant n mod 3.
		variant = (i/len(mixSlots)*4 + i%len(mixSlots)) % 3
	}
	return shape{
		kind:    k,
		variant: variant,
		proc:    processors[r.intn(len(processors))],
		stack:   directStacks[r.intn(len(directStacks))],
		pattern: "ar",
		bench:   mixBenches[r.intn(len(mixBenches))],
	}
}

// workloads lists the benchmark's traffic mixes. Why each exists is
// recorded in BENCHMARK.json and bench/README.md.
var workloads = []*workload{
	{
		name:   "measure-small",
		rate:   400,
		shapes: smallShapes(),
	},
	{
		name:     "measure-long",
		rate:     200,
		shapes:   longShapes(),
		genSeeds: 512,
	},
	{
		name:     "analyze-mix",
		rate:     200,
		shapes:   mixShapes(),
		choose:   chooseMix,
		genSeeds: 64,
	},
	{
		name:     "cluster-hot",
		cluster:  true,
		rate:     250,
		shapes:   smallShapes(),
		hotPool:  32,
		hotShare: 0.5,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// rng is splitmix64: small, fast, and owned by the benchmark, so the
// generated streams cannot shift when the program's own generators
// change.
type rng struct{ s uint64 }

func newRNG(vs ...uint64) *rng {
	var s uint64
	for _, v := range vs {
		s = mix64(s ^ v + 0x9e3779b97f4a7c15)
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}
