package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.01, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

// TestBeyond checks the rule that a percentile is reported only with at
// least ten samples beyond it: p99 needs 1,000 samples, p90 needs 100.
func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.9, 10}, {99, 0.9, 9}, {1467, 0.99, 14}, {0, 0.5, 0},
	} {
		got := beyond(c.n, c.p)
		if got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
		if (got >= minBeyond) != (c.want >= minBeyond) {
			t.Errorf("beyond(%d, %v): supported = %v", c.n, c.p, got >= minBeyond)
		}
	}
}

// TestQuartiles compares with Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // extrapolated, as Python does
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMidMean(t *testing.T) {
	// Sorted, the sample is 0..8 and 1000; its middle half is 2..7.
	if got := midMean([]float64{1, 2, 3, 4, 5, 6, 7, 8, 1000, 0}); got != 4.5 {
		t.Errorf("midMean = %v, want 4.5", got)
	}
	if got := midMean(nil); got != 0 {
		t.Errorf("midMean of nothing = %v, want 0", got)
	}
}

func TestMedianErr(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Quartiles 25.25 and 75.75: 1.2533 * 50.5/1.349 / 10.
	if got := medianErr(xs); math.Abs(got-4.6918) > 1e-3 {
		t.Errorf("medianErr(1..100) = %v, want 4.6918", got)
	}
	if got := medianErr([]float64{3}); got != 0 {
		t.Errorf("medianErr of one sample = %v, want 0", got)
	}
}

func TestWindowedMedian(t *testing.T) {
	// Four 1s windows holding 3, 1, 5 and 2 samples, plus one sample past
	// the phase that must be ignored.
	var s []sample
	for k, n := range []int{3, 1, 5, 2} {
		for i := 0; i < n; i++ {
			s = append(s, sample{at: time.Duration(k)*time.Second + time.Duration(i)*time.Millisecond, value: float64(10*k + i)})
		}
	}
	s = append(s, sample{at: 4 * time.Second, value: 99})
	count := func(v []float64) float64 { return float64(len(v)) }
	med, per := windowed(s, 4*time.Second, 4, count)
	if med != 2.5 || len(per) != 4 || per[0] != 3 || per[1] != 1 || per[2] != 5 || per[3] != 2 {
		t.Errorf("windowed counts: median %v, per window %v; want 2.5, [3 1 5 2]", med, per)
	}
	max, _ := windowed(s, 4*time.Second, 4, func(v []float64) float64 { return percentile(sorted(v), 1) })
	if max != 17 { // window maxima 2, 10, 24, 31
		t.Errorf("windowed maxima median = %v, want 17", max)
	}
}
