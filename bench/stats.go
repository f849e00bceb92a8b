package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of a
// sorted sample, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is how many samples of n lie above the nearest-rank
// p-quantile. A percentile is reported as supported only with at least
// minBeyond samples beyond it.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midMean is the mean of the middle half of a sample.
func midMean(xs []float64) float64 {
	s := sorted(xs)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	if len(mid) == 0 {
		return 0
	}
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// medianErr is the standard error of a sample's median, from the
// normal approximation with the spread estimated robustly from the
// quartiles: 1.2533 * (IQR/1.349) / sqrt(n).
func medianErr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return 1.2533 * (q3 - q1) / 1.349 / math.Sqrt(float64(len(xs)))
}

// quartiles returns the first quartile, median and third quartile by
// the method of Python's statistics.quantiles(xs, n=4) (exclusive), the
// rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		v := median(s)
		return v, v, v
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// sample is one timed observation: when it happened, relative to the
// start of its phase, and its value.
type sample struct {
	at    time.Duration
	value float64
}

// windowed splits a phase of length phase into n equal windows, applies
// stat to the values falling in each, and returns the median over the
// windows together with the per-window values. Samples outside the
// phase are ignored.
func windowed(samples []sample, phase time.Duration, n int, stat func([]float64) float64) (float64, []float64) {
	buckets := make([][]float64, n)
	for _, s := range samples {
		if s.at < 0 || s.at >= phase {
			continue
		}
		k := int(int64(s.at) * int64(n) / int64(phase))
		buckets[k] = append(buckets[k], s.value)
	}
	per := make([]float64, n)
	for k, b := range buckets {
		per[k] = stat(b)
	}
	return median(per), per
}
