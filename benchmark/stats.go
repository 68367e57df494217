package main

import (
	"math"
	"sort"
)

// quartiles is Python's statistics.quantiles(v, n=4): the definition the
// acceptance spreads are computed with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
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
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile returns the p-quantile (0..1) of sorted samples by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}
