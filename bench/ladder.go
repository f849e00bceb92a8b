package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/stack"
	"repro/internal/xrand"
)

// The ladder's layers, named after the modules whose public function
// each span wraps. Every span is recorded in the benchmark's own code,
// around the call into the layer: the program is measured from outside.
const (
	layerEngine  = "engine.run"     // cpu.Runner.RunProgram on the request's harness
	layerSetup   = "core.setup"     // core.Infrastructure.Setup
	layerHarness = "core.harness"   // core.BuildHarness
	layerMeasure = "core.measure"   // stack.System.Measure (core.Measure)
	layerService = "service.call"   // Service.Measure/Analyze/Infer, plan.Planner.Do
	layerServer  = "server.handler" // server.New(...).Handler().ServeHTTP into a recorder
	layerDirect  = "cluster.direct" // HTTP POST straight to the node pcfront chose
	layerFront   = "cluster.front"  // HTTP POST through an in-process cluster.NewFront
	layerEmpty   = "client.empty"   // an empty span, to calibrate the span pair
)

// parentOf is the layer each layer sits beneath.
var parentOf = map[string]string{
	layerEngine:  layerMeasure,
	layerSetup:   layerMeasure,
	layerHarness: layerMeasure,
	layerMeasure: layerService,
	layerService: layerServer,
	layerServer:  layerDirect,
	layerDirect:  layerFront,
	layerFront:   "client",
	layerEmpty:   "client",
}

// span is one timed call into a layer.
type span struct {
	Req    int    `json:"req"`
	Layer  string `json:"layer"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the ladder ends, and counts heap
// allocations per layer (runtime/metrics /gc/heap/allocs:objects). A
// tracer that is off runs the calls untimed (the ladder's warm-up).
type tracer struct {
	t0     time.Time
	off    bool
	spans  []span
	allocs map[string]*tally
	buf    []metrics.Sample
}

// tally is a layer's counted allocations and the calls they span.
type tally struct{ objects, calls uint64 }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), allocs: make(map[string]*tally), buf: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.buf)
	return t.buf[0].Value.Uint64()
}

// span times f as one call into layer on behalf of request req, and
// counts its allocations.
func (t *tracer) span(req int, layer string, f func() error) error {
	return t.count(layer, func() error { return t.timed(req, layer, f) })
}

// timed times f with clock reads only.
func (t *tracer) timed(req int, layer string, f func() error) error {
	if t.off {
		return f()
	}
	start := time.Since(t.t0)
	err := f()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{Req: req, Layer: layer, Parent: parentOf[layer], Start: int64(start), End: int64(end)})
	return err
}

// count counts f's allocations as one call into layer.
func (t *tracer) count(layer string, f func() error) error {
	if t.off {
		return f()
	}
	a0 := t.heapAllocs()
	err := f()
	n := t.heapAllocs() - a0
	a := t.allocs[layer]
	if a == nil {
		a = &tally{}
		t.allocs[layer] = a
	}
	a.objects += n
	a.calls++
	return err
}

// spanOverhead is the cost of the span pair itself: the mean of the
// middle half of n empty spans' durations. Like a median it ignores
// preempted outliers, and unlike a median of whole nanoseconds it is not
// quantized to the clock's tick.
func spanOverhead(n int) float64 {
	t := newTracer()
	for i := 0; i < n; i++ {
		t.span(i, layerEmpty, func() error { return nil })
	}
	d := make([]float64, len(t.spans))
	for i, s := range t.spans {
		d[i] = float64(s.End - s.Start)
	}
	return midMean(d)
}

// ladder owns one in-process instance of every layer: a compiled
// engine with its own 256-entry cache and measurement systems on it, a
// service with its planner, a server node, and pcfront over three more
// nodes on loopback.
type ladder struct {
	tr      *tracer
	engine  *engine.Compiled
	systems map[string]*stack.System
	svc     *service.Service
	planner *plan.Planner
	node    *server.Server
	nodes   []*server.Server
	// nodeURLs are the base URLs of the nodes behind the ladder's
	// pcfront, and fronted is pcfront's.
	nodeURLs []string
	fronted  string
	servers  []*httptest.Server
	front    *cluster.Front
	client   *http.Client
}

func newLadder() *ladder {
	svc := service.New(service.Config{WorkersPerShard: 4}) // pcserved's default pool
	return &ladder{
		tr:      newTracer(),
		engine:  engine.NewCompiled(engine.NewCache(engine.DefaultCacheCapacity)),
		systems: make(map[string]*stack.System),
		svc:     svc,
		planner: plan.New(svc),
		node:    server.New(server.Config{}),
		client:  newClient(1),
	}
}

// startCluster brings up the ladder's pcfront over three nodes.
func (l *ladder) startCluster() error {
	for i := 0; i < clusterNodes; i++ {
		n := server.New(server.Config{})
		s := httptest.NewServer(n.Handler())
		l.nodes, l.servers, l.nodeURLs = append(l.nodes, n), append(l.servers, s), append(l.nodeURLs, s.URL)
	}
	// Probing off: the nodes stay up, and a probe would land inside
	// whichever span is running.
	front, err := cluster.NewFront(cluster.Config{Backends: l.nodeURLs, ProbeInterval: -1})
	if err != nil {
		return err
	}
	s := httptest.NewServer(front.Handler())
	l.front, l.fronted, l.servers = front, s.URL, append(l.servers, s)
	return nil
}

func (l *ladder) close() {
	l.client.CloseIdleConnections()
	for _, s := range l.servers {
		s.Close()
	}
	if l.front != nil {
		l.front.Close()
	}
	for _, n := range append(l.nodes, l.node) {
		n.Close()
	}
}

// system returns the ladder's measurement system for a request's
// shard, booted on the ladder's engine.
func (l *ladder) system(norm api.MeasureRequest) (*stack.System, error) {
	key := norm.ShardKey()
	if sys, ok := l.systems[key]; ok {
		return sys, nil
	}
	model, err := cpu.ModelByTag(norm.Processor)
	if err != nil {
		return nil, err
	}
	sys, err := stack.New(model, norm.Stack, stack.Options{WithTSC: !norm.NoTSC, Governor: kernel.Performance, Engine: l.engine})
	if err != nil {
		return nil, err
	}
	l.systems[key] = sys
	return sys, nil
}

// replay runs operation o, request number req, through every layer in
// turn, bottom up, and checks that the server, the front and the node
// it chose give byte-identical answers.
func (l *ladder) replay(req int, o op) error {
	if o.kind == kindMeasure {
		if err := l.core(req, o); err != nil {
			return err
		}
	}
	if err := l.service(req, o); err != nil {
		return err
	}
	var local, fronted, direct answer
	err := l.tr.span(req, layerServer, func() (err error) {
		local, err = exchange(o, handlerDo(l.node.Handler()))
		return err
	})
	if err != nil {
		return err
	}
	if err := l.tr.span(req, layerFront, func() (err error) {
		fronted, err = send(l.client, l.fronted, o)
		return err
	}); err != nil {
		return err
	}
	if err := l.tr.span(req, layerDirect, func() (err error) {
		direct, err = send(l.client, "http://"+fronted.backend, o)
		return err
	}); err != nil {
		return err
	}
	if local.hash != fronted.hash || fronted.hash != direct.hash {
		return fmt.Errorf("%s op %d: server, front and node answers differ", o.kind.path(), req)
	}
	return nil
}

// core times one /measure operation's runs twice on a reset system:
// once split into its steps (counter setup, harness build, engine run)
// and once whole through stack.System.Measure, the way the service's
// worker runs it.
func (l *ladder) core(req int, o op) error {
	var m api.MeasureRequest
	if err := json.Unmarshal(o.body, &m); err != nil {
		return err
	}
	norm, err := m.Normalized()
	if err != nil {
		return err
	}
	creq, err := norm.Build()
	if err != nil {
		return err
	}
	sys, err := l.system(norm)
	if err != nil {
		return err
	}
	specs := make([]core.CounterSpec, len(creq.Events))
	for i, ev := range creq.Events {
		specs[i] = core.Spec(ev, creq.Mode)
	}
	// Every pass records where each run leaves the core: its cycle clock
	// and timer ticks. The split passes repeat core.Measure's steps and its
	// per-run seeding, so all passes must agree; if core.Measure changes
	// its steps, the split no longer times the run it makes, and the
	// ladder fails rather than report it.
	type runEnd struct {
		cycles float64
		ticks  int
	}
	var ends [][]runEnd
	whole := func(wrap func(layer string, f func() error) error) error {
		sys.Reset()
		var e []runEnd
		for r := 0; r < norm.Runs; r++ {
			creq.Seed = norm.Seed + uint64(r)
			var m *core.Measurement
			if err := wrap(layerMeasure, func() (err error) {
				m, err = sys.Measure(creq)
				return err
			}); err != nil {
				return err
			}
			e = append(e, runEnd{m.Cycles, m.TimerTicks})
		}
		ends = append(ends, e)
		return nil
	}
	split := func(wrap func(layer string, f func() error) error) error {
		sys.Reset()
		var e []runEnd
		for r := 0; r < norm.Runs; r++ {
			creq.Seed = norm.Seed + uint64(r)
			if err := wrap(layerSetup, func() error { return sys.Infra.Setup(specs) }); err != nil {
				return err
			}
			var prog *isa.Program
			if err := wrap(layerHarness, func() (err error) {
				prog, err = core.BuildHarness(sys.Infra, creq)
				return err
			}); err != nil {
				return err
			}
			// core.Measure's own per-run seeding, so the run is the one it makes.
			sys.Kernel.Core.SeedRun(xrand.Mix(creq.Seed, uint64(creq.Pattern), uint64(creq.Opt)))
			if err := wrap(layerEngine, func() error { return l.engine.RunProgram(sys.Kernel.Core, prog) }); err != nil {
				return err
			}
			e = append(e, runEnd{sys.Kernel.Core.Cycles, sys.Kernel.Core.TimerDeliveries})
		}
		ends = append(ends, e)
		return nil
	}
	timed := func(layer string, f func() error) error { return l.tr.timed(req, layer, f) }
	// Core's own self time is about a microsecond: as much as the cache
	// disturbance a runtime/metrics read leaves behind, or as the misses a
	// cold first pass pays that a second pass is spared. So the untimed
	// passes come first and count the allocations, and then both timed
	// passes run equally warm and read only the clock.
	for _, pass := range []func() error{
		func() error { return whole(l.tr.count) },
		func() error { return split(l.tr.count) },
		func() error { return split(timed) },
		func() error { return whole(timed) },
	} {
		if err := pass(); err != nil {
			return err
		}
	}
	for _, e := range ends[1:] {
		if !slices.Equal(e, ends[0]) {
			return fmt.Errorf("/measure op %d: the ladder's split of core.Measure ends its runs elsewhere than core.Measure (%v, want %v)", req, e, ends[0])
		}
	}
	return nil
}

// service times the operation's call into the service layer. Sessions
// have none: they run in the server's session registry.
func (l *ladder) service(req int, o op) error {
	ctx := context.Background()
	var (
		call func() error
		err  error
	)
	// The body is decoded outside the span: decoding is the server's.
	switch o.kind {
	case kindMeasure:
		var r api.MeasureRequest
		err = json.Unmarshal(o.body, &r)
		call = func() (err error) { _, err = l.svc.Measure(ctx, r); return err }
	case kindAnalyze:
		var r api.AnalyzeRequest
		err = json.Unmarshal(o.body, &r)
		call = func() (err error) { _, err = l.svc.Analyze(ctx, r); return err }
	case kindPlan:
		var r api.PlanRequest
		err = json.Unmarshal(o.body, &r)
		call = func() (err error) { _, err = l.planner.Do(ctx, r); return err }
	case kindInfer:
		var r api.InferRequest
		err = json.Unmarshal(o.body, &r)
		call = func() (err error) { _, err = l.svc.Infer(ctx, r); return err }
	default:
		return nil
	}
	if err != nil {
		return err
	}
	return l.tr.span(req, layerService, call)
}

// handlerDo serves exchanges from a handler into a response recorder.
func handlerDo(h http.Handler) do {
	return func(method, path string, body []byte, want int) ([]byte, http.Header, error) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rr.Code != want {
			return nil, nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, rr.Code, rr.Body.Bytes())
		}
		return rr.Body.Bytes(), rr.Header(), nil
	}
}

// ladderOpsPerSecond sizes the replay: the first 100 operations of the
// stream per measured second, 2,400 at the benchmark's 24 seconds.
const ladderOpsPerSecond = 100

// ladderResult is the outcome of one ladder run.
type ladderResult struct {
	attempted, failed int64
	failures          []string
	replayed          int
	metrics           map[string]metric
	rows              []layerRow
	overheadNS        float64
	// measureShare is the /measure operations' core.measure time over
	// their server handler time.
	measureShare float64
	// hop reports whether the workload's end-to-end path crosses pcfront.
	hop bool
}

// runLadder replays the start of a workload's stream sequentially
// through the in-process ladder and derives the per-layer metrics.
func runLadder(w *workload, cfg config) (*ladderResult, error) {
	l := newLadder()
	defer l.close()
	if err := l.startCluster(); err != nil {
		return nil, err
	}
	res := &ladderResult{overheadNS: spanOverhead(1000), replayed: ladderOpsPerSecond * cfg.seconds, hop: w.cluster}
	fail := func(err error) {
		res.failed++
		if len(res.failures) < 5 {
			res.failures = append(res.failures, "ladder: "+err.Error())
		}
	}

	// Warm every layer with the workload's warm-up set, untimed; each
	// cluster node gets the whole set, as in the end-to-end setup.
	l.tr.off = true
	for _, o := range w.warmup(cfg.seed) {
		res.attempted++
		if err := l.replay(-1, o); err != nil {
			fail(err)
		}
		for _, url := range l.nodeURLs {
			if _, err := send(l.client, url, o); err != nil {
				fail(err)
			}
		}
	}
	l.tr.off = false

	before, err := scrape(l.client, []string{l.fronted})
	if err != nil {
		return nil, err
	}
	for i := 0; i < res.replayed; i++ {
		res.attempted++
		if err := l.replay(i, w.op(cfg.seed, i)); err != nil {
			fail(err)
		}
	}
	after, err := scrape(l.client, []string{l.fronted})
	if err != nil {
		return nil, err
	}

	res.rows, res.metrics, res.measureShare = layerMetrics(l.tr.spans, l.tr.allocs, res.overheadNS)
	for k, v := range frontRatios(after.since(before)) {
		res.metrics[k] = v
	}
	if cfg.out != "" {
		if err := writeSpans(filepath.Join(cfg.out, "trace-"+w.name+".json"), w.name, cfg.seed, res.overheadNS, l.tr.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	layer string
	calls int
	// p50 is the median duration of one call, busy the total over all
	// calls.
	p50, busy time.Duration
	// self is the median over operations of the layer's time minus the
	// time of the layers beneath it, selfErr that median's standard
	// error; hasSelf is false for leaves.
	self, selfErr time.Duration
	hasSelf       bool
	allocs        float64 // mean per call
}

// layerMetrics condenses the spans into the table and the per-layer
// metrics. Self times are medians over operations of a layer's total
// minus its children's, so they come from the same operations.
func layerMetrics(spans []span, allocs map[string]*tally, overheadNS float64) ([]layerRow, map[string]metric, float64) {
	type acc struct{ durs []float64 }
	by := make(map[string]*acc)
	perOp := make(map[int]map[string]float64)
	runs := make(map[int]float64)
	for _, s := range spans {
		a := by[s.Layer]
		if a == nil {
			a = &acc{}
			by[s.Layer] = a
		}
		d := float64(s.End - s.Start)
		a.durs = append(a.durs, d)
		if perOp[s.Req] == nil {
			perOp[s.Req] = make(map[string]float64)
		}
		perOp[s.Req][s.Layer] += d
		if s.Layer == layerMeasure {
			runs[s.Req]++
		}
	}
	// self collects, over the operations that called the parent and every
	// child, the parent's time minus the children's. A session has no
	// service call and an operation other than /measure no core calls, so
	// their self times are left undefined rather than guessed.
	self := func(parent string, children ...string) []float64 {
		var out []float64
	ops:
		for i, t := range perOp {
			p, ok := t[parent]
			if !ok {
				continue
			}
			for _, c := range children {
				d, ok := t[c]
				if !ok {
					continue ops
				}
				p -= d
			}
			if parent == layerMeasure {
				p /= runs[i] // per core.Measure call
			}
			out = append(out, p)
		}
		return out
	}
	selfs := map[string][]float64{
		layerMeasure: self(layerMeasure, layerSetup, layerHarness, layerEngine),
		layerService: self(layerService, layerMeasure),
		layerServer:  self(layerServer, layerService),
		layerDirect:  self(layerDirect, layerServer),
		layerFront:   self(layerFront, layerDirect),
	}
	var rows []layerRow
	for _, layer := range []string{layerEngine, layerSetup, layerHarness, layerMeasure, layerService, layerServer, layerDirect, layerFront} {
		a := by[layer]
		if a == nil {
			continue
		}
		var busy float64
		for _, d := range a.durs {
			busy += d
		}
		row := layerRow{layer: layer, calls: len(a.durs), p50: time.Duration(median(a.durs)), busy: time.Duration(busy)}
		if t := allocs[layer]; t != nil {
			row.allocs = float64(t.objects) / float64(t.calls)
		}
		if s, ok := selfs[layer]; ok && len(s) > 0 {
			row.self, row.selfErr, row.hasSelf = time.Duration(median(s)), time.Duration(medianErr(s)), true
		}
		rows = append(rows, row)
	}
	row := func(layer string) layerRow {
		for _, r := range rows {
			if r.layer == layer {
				return r
			}
		}
		return layerRow{}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	share := func(layer string) float64 {
		if m := row(layerMeasure).busy; m > 0 {
			return float64(row(layer).busy) / float64(m)
		}
		return 0
	}
	m := map[string]metric{
		"engine.run_us":           {us(row(layerEngine).p50), "us"},
		"engine.run_share":        {share(layerEngine), "ratio"},
		"engine.run_allocs":       {row(layerEngine).allocs, "count"},
		"core.setup_us":           {us(row(layerSetup).p50), "us"},
		"core.setup_share":        {share(layerSetup), "ratio"},
		"core.setup_allocs":       {row(layerSetup).allocs, "count"},
		"core.harness_us":         {us(row(layerHarness).p50), "us"},
		"core.harness_share":      {share(layerHarness), "ratio"},
		"core.harness_allocs":     {row(layerHarness).allocs, "count"},
		"core.measure_us":         {us(row(layerMeasure).p50), "us"},
		"core.self_us":            {us(row(layerMeasure).self), "us"},
		"service.call_us":         {us(row(layerService).p50), "us"},
		"service.self_us":         {us(row(layerService).self), "us"},
		"service.allocs":          {row(layerService).allocs, "count"},
		"server.handler_us":       {us(row(layerServer).p50), "us"},
		"server.self_us":          {us(row(layerServer).self), "us"},
		"server.allocs":           {row(layerServer).allocs, "count"},
		"cluster.hop_us":          {us(row(layerFront).self), "us"},
		"client.span_overhead_ns": {overheadNS, "ns"},
	}
	// The /measure operations' core.measure time over their handler time:
	// the ladder's side of the reconciliation with the program's own
	// engine-run stage histogram.
	var measure, handler float64
	for _, t := range perOp {
		if c, ok := t[layerMeasure]; ok {
			measure += c
			handler += t[layerServer]
		}
	}
	measureShare := 0.0
	if handler > 0 {
		measureShare = measure / handler
	}
	return rows, m, measureShare
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path, workload string, seed uint64, overheadNS float64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "span_overhead_ns": overheadNS, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// print writes the per-layer table, the reconciliation with the
// program's own telemetry, and every per-layer metric.
func (r *ladderResult) print(w io.Writer, all map[string]metric) {
	fmt.Fprintf(w, "ladder   first %d ops replayed in process, one at a time; empty span %.0f ns\n", r.replayed, r.overheadNS)
	fmt.Fprintf(w, "  %-15s %7s %12s %12s %20s %10s\n", "layer", "calls", "p50/call", "busy", "self(p50)", "allocs")
	for _, row := range r.rows {
		self, note := "-", ""
		if row.hasSelf {
			self = row.self.Round(100*time.Nanosecond).String() + "±" + row.selfErr.Round(100*time.Nanosecond).String()
			// A self time may fall below zero by the span pair's own cost
			// and the median's error; further below, the split is wrong.
			if float64(row.self) < -(r.overheadNS + 2*float64(row.selfErr)) {
				note = "  (self time below zero beyond the span cost and its error: invalid)"
			}
		}
		if !r.hop && (row.layer == layerFront || row.layer == layerDirect) {
			note = "  (not on this workload's end-to-end path)"
		}
		fmt.Fprintf(w, "  %-15s %7d %12v %12v %20s %10.1f%s\n", row.layer, row.calls,
			row.p50.Round(100*time.Nanosecond), row.busy.Round(time.Microsecond), self, row.allocs, note)
	}
	program := all["service.engine_run_stage_share"].Value
	fmt.Fprintf(w, "reconcile  program engine-run stage share of request time %.3f; ladder core.measure share of /measure handler time %.3f; difference %+.3f\n",
		program, r.measureShare, program-r.measureShare)
	fmt.Fprintf(w, "reconcile  engine-run wraps the whole run loop, counter setup and harness build included, so it maps to core.measure, not engine.run\n")
	printMetrics(w, "layer", all)
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure  %s\n", f)
	}
}
