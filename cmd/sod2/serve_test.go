package main

import (
	"testing"
	"time"
)

// percentile is nearest rank, ceil(p·n): truncating p·(n−1) reads one
// sample low at these tails and never reaches the maximum at p99.
func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]time.Duration, 48)
	for i := range sorted {
		sorted[i] = time.Duration(i)
	}
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{
		{0.90, 43}, // ceil(43.2) = rank 44
		{0.99, 47}, // ceil(47.52) = rank 48, the maximum
		{0.50, 23},
	} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("p%v of 48 = index %d, want %d", tc.p*100, got, tc.want)
		}
	}
	if got := percentile(nil, 0.9); got != 0 {
		t.Errorf("empty sample = %d, want 0", got)
	}
}
