package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the middle two for an even
// count), 0 for no samples. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with
// at least p of the samples at or below it. With 1500 samples p=0.99
// leaves exactly 15 beyond it.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartileSpread is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(values, n=4) returns (the "exclusive" method) —
// the figure the benchmark driver holds against each metric's bound.
// Fewer than four values fall back to (max-min)/median.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := sortedCopy(vs)
	med := median(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(med)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
