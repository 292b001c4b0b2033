package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of v by nearest rank;
// zero for an empty sample.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 { return percentile(v, 50) }

// ratioPct is part as a percentage of whole; zero when whole is.
func ratioPct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// tailCandidates are the percentiles a *_tail metric may report, highest
// first.
var tailCandidates = []float64{99.99, 99.9, 99, 95, 90, 75}

// tailPercent picks the percentile behind a *_tail metric: the highest
// candidate that still has at least ten samples beyond it, so the figure is
// never one outlier. Below forty samples no candidate qualifies and the
// median stands in.
func tailPercent(n int) float64 {
	for _, p := range tailCandidates {
		// The epsilon forgives (100-p)/100 not being exact in binary.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 50
}

// tail returns the tail percentile chosen by tailPercent and its value.
func tail(v []float64) (pct, value float64) {
	pct = tailPercent(len(v))
	return pct, percentile(v, pct)
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), the rule the acceptance driver applies to a set of
// runs. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the run-to-run spread of a set of runs: the distance between
// the first and third quartile as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
