package main

import (
	"math"
	"testing"
	"time"
)

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

// The reported tail is the highest percentile with at least ten samples
// beyond it, and the sample count comes with it.
func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{5, 0.5, 3},          // too few for anything: falls back to the median
		{50, 0.5, 25},        // p90 would have 5 beyond
		{100, 0.9, 90},       // exactly 10 beyond p90
		{999, 0.9, 900},      // p99 would have 9 beyond
		{1000, 0.99, 990},    // exactly 10 beyond p99
		{10000, 0.999, 9990}, // exactly 10 beyond p99.9
	} {
		q, v, n := highestTail(ramp(tc.n))
		if q != tc.q || v != tc.want || n != tc.n {
			t.Errorf("n=%d: got p%g=%g (n=%d), want p%g=%g", tc.n, q*100, v, n, tc.q*100, tc.want)
		}
	}
	if q, v, n := highestTail(nil); n != 0 || v != 0 || q != 0.5 {
		t.Errorf("empty: got p%g=%g n=%d", q*100, v, n)
	}
}

// iqrShare must agree with Python's statistics.quantiles(v, n=4), which
// is what the driver computes the spread with.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// quantiles([1..10], n=4) == [2.75, 5.5, 8.25]; median 5.5.
	if got := iqrShare(ramp(10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1.0", got)
	}
	// quantiles([10, 12, 11, 13], n=4) == [10.25, 11.5, 12.75].
	if got, want := iqrShare([]float64{10, 12, 11, 13}), 2.5/11.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{4}); got != 0 {
		t.Errorf("single value: %v", got)
	}
}

// One noisy window must not move the windowed percentile.
func TestWindowedIgnoresOneNoisyWindow(t *testing.T) {
	var due []time.Duration
	var lat []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 200; i++ {
			due = append(due, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			v := 100.0 + float64(i%10)
			if w == 2 {
				v *= 20 // a neighbour's burst
			}
			lat = append(lat, v)
		}
	}
	if got := windowed(due, lat, time.Second, 0.5); got < 100 || got > 110 {
		t.Errorf("windowed p50 = %v, want within the quiet windows' range", got)
	}
	if got := windowed(due, lat, time.Second, 0.9); got < 100 || got > 110 {
		t.Errorf("windowed p90 = %v, want within the quiet windows' range", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := quantile(ramp(10), 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (nearest rank)", got)
	}
}
