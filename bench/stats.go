package main

import (
	"math"
	"sort"
)

// summary is one metric over a run's repeats.
type summary struct {
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(xs []float64, unit, better string) summary {
	q1, q3 := quartiles(xs)
	return summary{Unit: unit, Better: better, Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Samples: xs}
}

// spread is the interquartile range as a share of the median's magnitude.
func (s summary) spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, or the mean of the two middle values;
// NaN for an empty sample.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the p-th percentile (0 to 100) of xs, interpolated linearly
// between the closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (its default "exclusive" method),
// so the spreads printed here match how the benchmark's runs are judged. A
// single value is its own quartiles; an empty sample gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
