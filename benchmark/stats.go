package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// the choosing-metrics rule "the highest percentile that has at least
// ten samples beyond it".
const minBeyond = 10

// percentile is the nearest-rank percentile (p in (0,100]) of an
// ascending-sorted sample: the smallest value with at least p% of the
// sample at or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based position of percentile p in a sample of n.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// samplesBeyond counts the samples strictly above the nearest-rank
// position of percentile p in a sample of n.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// supportsPercentile reports whether a sample of n has at least
// minBeyond samples beyond percentile p.
func supportsPercentile(n int, p float64) bool { return samplesBeyond(n, p) >= minBeyond }

// median of an unsorted sample (mean of the middle two when even).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean of strictly positive values (0 when empty or any value <= 0).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// entryMedianGeomean is latency_geomean_ms: the geometric mean over pool
// entries of each entry's median latency across laps. perEntry[i] holds
// entry i's latencies, one per lap. It is Table 6's summary statistic,
// and unlike a mixed-model p50 it does not sit on a mode boundary.
func entryMedianGeomean(perEntry [][]float64) float64 {
	meds := make([]float64, 0, len(perEntry))
	for _, laps := range perEntry {
		if len(laps) > 0 {
			meds = append(meds, median(laps))
		}
	}
	return geomean(meds)
}
