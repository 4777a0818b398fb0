package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a p99 of 500 samples is the fifth-worst value and does
// not repeat.
const minBeyond = 10

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond is how many of n samples lie strictly above the q-quantile's
// rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantiles are the percentiles a report may quote, ascending.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999}

// highestTail picks the highest percentile of tailQuantiles that has at
// least minBeyond samples beyond it, falling back to the median. It
// returns the percentile, its value and the sample count.
func highestTail(samples []float64) (q, value float64, n int) {
	n = len(samples)
	if n == 0 {
		return 0.5, 0, 0
	}
	sorted := sortedCopy(samples)
	q = tailQuantiles[0]
	for _, c := range tailQuantiles {
		if beyond(n, c) >= minBeyond {
			q = c
		}
	}
	return q, quantile(sorted, q), n
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// windowed splits samples into consecutive windows by their due time and
// returns the median over windows of each window's q-quantile. One noisy
// second (a neighbour's burst, a GC cycle) moves one window, not the
// reported value. Windows too small to have minBeyond samples beyond q
// are left out; if none is large enough, q is taken over all samples.
func windowed(due []time.Duration, lat []float64, window time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	buckets := make(map[int][]float64)
	for i, d := range due {
		k := int(d / window)
		buckets[k] = append(buckets[k], lat[i])
	}
	var qs []float64
	for _, b := range buckets {
		if beyond(len(b), q) < minBeyond {
			continue
		}
		qs = append(qs, quantile(sortedCopy(b), q))
	}
	if len(qs) == 0 {
		return quantile(sortedCopy(lat), q)
	}
	return median(qs)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// iqrShare is the distance between the first and third quartile of v as
// a share of its median — the spread the driver bounds. Quartiles follow
// Python's statistics.quantiles(v, n=4) (exclusive method).
func iqrShare(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}
