package main

import (
	"strings"
	"testing"
	"time"
)

func TestReportLatencyLine(t *testing.T) {
	d := []time.Duration{4 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	got := summarizeLatency(d).String()
	if !strings.Contains(got, "p50=2ms") || !strings.Contains(got, "max=4ms") {
		t.Errorf("summary = %q", got)
	}
}

func TestLatencySummaryEmpty(t *testing.T) {
	s := summarizeLatency(nil)
	if s.N() != 0 {
		t.Errorf("N = %d, want 0", s.N())
	}
	if got := s.Percentile(0.5); got != 0 {
		t.Errorf("p50 of empty = %v, want 0", got)
	}
	if got := s.Max(); got != 0 {
		t.Errorf("max of empty = %v, want 0", got)
	}
	if got := s.String(); got != "n/a" {
		t.Errorf("String of empty = %q, want n/a", got)
	}
}

func TestLatencySummarySingleSample(t *testing.T) {
	s := summarizeLatency([]time.Duration{42 * time.Millisecond})
	for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got := s.Percentile(p); got != 42*time.Millisecond {
			t.Errorf("p%.0f = %v, want 42ms", p*100, got)
		}
	}
	if s.Max() != 42*time.Millisecond {
		t.Errorf("max = %v, want 42ms", s.Max())
	}
}

func TestLatencySummaryPercentiles(t *testing.T) {
	// 1..100 ms shuffled: nearest-rank percentiles are exact.
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	orig := append([]time.Duration(nil), d...)
	s := summarizeLatency(d)
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1, 100 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := s.Percentile(tc.p); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.p*100, got, tc.want)
		}
	}
	// The input slice is untouched.
	for i := range d {
		if d[i] != orig[i] {
			t.Fatalf("summarizeLatency mutated its input at %d", i)
		}
	}
	// Out-of-range p clamps instead of panicking.
	if got := s.Percentile(-1); got != 1*time.Millisecond {
		t.Errorf("p<0 = %v, want min", got)
	}
	if got := s.Percentile(2); got != 100*time.Millisecond {
		t.Errorf("p>1 = %v, want max", got)
	}
}
