package cpu

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// twoMapFetch is the reference cold-fetch model: one set of touched
// i-cache lines (addr>>6) and one of touched i-TLB pages (addr>>12),
// both emptied by every BeginRun, with the misses and penalty cycles
// they charge. It is the model the core's per-page records replace.
type twoMapFetch struct {
	m            *Model
	lines, pages map[uint64]struct{}
	icache, itlb int64
	cycles       float64
}

func newTwoMapFetch(m *Model) *twoMapFetch {
	return &twoMapFetch{m: m, lines: map[uint64]struct{}{}, pages: map[uint64]struct{}{}}
}

func (f *twoMapFetch) begin() {
	clear(f.lines)
	clear(f.pages)
}

// spanLines expands a span to its global line numbers.
func spanLines(s FetchSpan) []uint64 {
	var out []uint64
	for b := uint64(0); b < 64; b++ {
		if s.Lines&(1<<b) != 0 {
			out = append(out, s.Page<<6|b)
		}
	}
	return out
}

func (f *twoMapFetch) coldCount(spans []FetchSpan) (lines, pages int) {
	for _, s := range spans {
		for _, l := range spanLines(s) {
			if _, ok := f.lines[l]; !ok {
				lines++
			}
		}
		if _, ok := f.pages[s.Page]; !ok {
			pages++
		}
	}
	return lines, pages
}

func (f *twoMapFetch) touchLine(l uint64) {
	if _, ok := f.lines[l]; !ok {
		f.lines[l] = struct{}{}
		f.icache++
		f.cycles += f.m.ICacheMissPenalty
	}
}

func (f *twoMapFetch) touchPage(p uint64) {
	if _, ok := f.pages[p]; !ok {
		f.pages[p] = struct{}{}
		f.itlb++
		f.cycles += f.m.ITLBMissPenalty
	}
}

func (f *twoMapFetch) mark(spans []FetchSpan) {
	for _, s := range spans {
		for _, l := range spanLines(s) {
			f.touchLine(l)
		}
	}
	for _, s := range spans {
		f.touchPage(s.Page)
	}
}

func (f *twoMapFetch) fetch(addr uint64) {
	f.touchLine(addr >> 6)
	f.touchPage(addr >> 12)
}

// fetchRig drives a core's fetch state and the reference side by side.
// Counter 0 counts i-cache misses and counter 1 i-TLB misses, in both
// modes.
type fetchRig struct {
	t   *testing.T
	c   *Core
	ref *twoMapFetch
	r   *xrand.Rand
	// pages is the pool addresses and spans are drawn from: a few
	// adjacent pages, so streams cross page boundaries, and one far away.
	pages []uint64
}

func newFetchRig(t *testing.T, m *Model, seed uint64) *fetchRig {
	t.Helper()
	c := NewCore(m)
	for i, ev := range []Event{EventICacheMiss, EventITLBMiss} {
		if err := c.PMU.Configure(i, CounterConfig{Event: ev, User: true, OS: true}); err != nil {
			t.Fatal(err)
		}
	}
	c.PMU.Enable(3)
	base := uint64(0x400000) >> 12
	return &fetchRig{
		t: t, c: c, ref: newTwoMapFetch(m), r: xrand.New(seed),
		pages: []uint64{base, base + 1, base + 2, base + 3, 0x7f0000000 >> 12},
	}
}

// check compares the counters and cycles with the reference.
func (g *fetchRig) check(what string) {
	g.t.Helper()
	ic, _ := g.c.PMU.Value(0)
	tlb, _ := g.c.PMU.Value(1)
	if ic != g.ref.icache || tlb != g.ref.itlb || g.c.Cycles != g.ref.cycles {
		g.t.Fatalf("%s: ICACHE_MISS %d, ITLB_MISS %d, cycles %v; two-map model %d, %d, %v",
			what, ic, tlb, g.c.Cycles, g.ref.icache, g.ref.itlb, g.ref.cycles)
	}
}

func (g *fetchRig) begin() {
	g.c.BeginRun()
	g.ref.begin()
}

func (g *fetchRig) fetch(addr uint64) {
	g.t.Helper()
	g.c.fetchPenalty(addr)
	g.ref.fetch(addr)
	g.check(fmt.Sprintf("fetch %#x", addr))
}

func (g *fetchRig) count(spans []FetchSpan) {
	g.t.Helper()
	l, p := g.c.FetchColdCount(spans)
	wl, wp := g.ref.coldCount(spans)
	if l != wl || p != wp {
		g.t.Fatalf("FetchColdCount(%x) = %d lines, %d pages; two-map model %d, %d", spans, l, p, wl, wp)
	}
	g.check(fmt.Sprintf("FetchColdCount(%x)", spans))
}

func (g *fetchRig) mark(spans []FetchSpan) {
	g.t.Helper()
	g.c.FetchMark(spans)
	g.ref.mark(spans)
	g.check(fmt.Sprintf("FetchMark(%x)", spans))
}

// addr draws a fetch address from the page pool, now and then the last
// line of a page or the first of the next.
func (g *fetchRig) addr() uint64 {
	page := g.pages[g.r.Intn(len(g.pages))]
	line := uint64(g.r.Intn(64))
	switch g.r.Intn(4) {
	case 0:
		line = 63
	case 1:
		line = 0
	}
	return page<<12 | line<<6 | uint64(g.r.Intn(64))
}

// spans draws one to three spans on distinct pages: a single line, a
// run of lines (as a block lowers to), or an arbitrary mask.
func (g *fetchRig) spans() []FetchSpan {
	pages := append([]uint64(nil), g.pages...)
	for i := len(pages) - 1; i > 0; i-- {
		j := g.r.Intn(i + 1)
		pages[i], pages[j] = pages[j], pages[i]
	}
	out := make([]FetchSpan, 1+g.r.Intn(3))
	for i := range out {
		var lines uint64
		switch g.r.Intn(3) {
		case 0:
			lines = 1 << g.r.Intn(64)
		case 1:
			lo, n := g.r.Intn(64), 1+g.r.Intn(8)
			for b := lo; b < lo+n && b < 64; b++ {
				lines |= 1 << b
			}
		default:
			for lines == 0 {
				lines = g.r.Uint64()
			}
		}
		out[i] = FetchSpan{Page: pages[i], Lines: lines}
	}
	return out
}

// step applies one random operation other than BeginRun.
func (g *fetchRig) step() {
	g.c.Mode = Mode(g.r.Intn(2))
	switch g.r.Intn(3) {
	case 0:
		g.fetch(g.addr())
	case 1:
		g.count(g.spans())
	default:
		spans := g.spans()
		g.count(spans)
		g.mark(spans)
	}
}

// TestFetchStateMatchesTwoMapModel drives the core's cold-fetch state —
// per-page line masks stamped with a run epoch — and the two-map model
// it replaced with the same random address streams and footprint spans,
// runs separated by BeginRun, and requires the same cold counts,
// ICACHE_MISS and ITLB_MISS counts, and cycles after every operation.
// Both engines read this state, so the engine conformance suite cannot
// judge it.
func TestFetchStateMatchesTwoMapModel(t *testing.T) {
	t.Run("cold-before-first-BeginRun", func(t *testing.T) {
		for _, m := range AllModels {
			g := newFetchRig(t, m, 1)
			spans := []FetchSpan{{Page: g.pages[0], Lines: 1 << 63}, {Page: g.pages[1], Lines: 1}}
			g.count(spans)
			g.count(spans) // counting marks nothing
			g.mark(spans)
			g.count(spans)
		}
	})
	t.Run("page-boundary", func(t *testing.T) {
		for _, m := range AllModels {
			g := newFetchRig(t, m, 2)
			p := g.pages[0]
			for run := 0; run < 4; run++ {
				g.begin()
				g.fetch(p<<12 | 63<<6 | 8)    // last line of the page
				g.fetch((p+1)<<12 | 0<<6 | 4) // first line of the next
				g.count([]FetchSpan{{Page: p, Lines: 3 << 62}, {Page: p + 1, Lines: 3}})
				g.mark([]FetchSpan{{Page: p, Lines: 1 << 62}, {Page: p + 1, Lines: 1 << 1}})
				g.fetch(p<<12 | 62<<6)
				g.fetch((p+1)<<12 | 1<<6)
				g.fetch((p+2)<<12 | 63<<6)
			}
		}
	})
	t.Run("random-streams", func(t *testing.T) {
		for _, m := range AllModels {
			for seed := uint64(1); seed <= 20; seed++ {
				g := newFetchRig(t, m, xrand.Mix(seed, uint64(m.Arch)))
				g.count(g.spans())
				for op := 0; op < 300; op++ {
					if g.r.Intn(25) == 0 {
						g.begin()
					}
					g.step()
				}
			}
		}
	})
	t.Run("thousand-runs", func(t *testing.T) {
		g := newFetchRig(t, Athlon64X2, 3)
		for run := 0; run < 1000; run++ {
			g.begin()
			for op := 0; op < 6; op++ {
				g.step()
			}
		}
		if g.c.run != 1001 {
			t.Fatalf("run epoch %d after 1,000 BeginRun calls, want 1001", g.c.run)
		}
		if len(g.c.pages) != len(g.pages) {
			t.Fatalf("%d page records after 1,000 runs over %d pages, want one per page", len(g.c.pages), len(g.pages))
		}
	})
}
