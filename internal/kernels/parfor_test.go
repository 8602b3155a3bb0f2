package kernels

import (
	"sync/atomic"
	"testing"
)

// TestParallelForStripePanicReraised panics inside one stripe of a
// four-way split: the panic must reach the caller's recover (not kill
// the process from a bare goroutine), carry the stripe's value, and be
// raised only after every other stripe has run to completion.
func TestParallelForStripePanicReraised(t *testing.T) {
	const n = int64(1) << 20
	var covered atomic.Int64
	var got any
	func() {
		defer func() { got = recover() }()
		ParallelFor(4, n, func(lo, hi int64) {
			if lo <= n/2 && n/2 < hi {
				panic("stripe fault")
			}
			covered.Add(hi - lo)
		})
	}()
	if got != "stripe fault" {
		t.Fatalf("recovered %v, want the stripe's panic value", got)
	}
	if c := covered.Load(); c != n-n/4 {
		t.Fatalf("other stripes covered %d elements, want %d", c, n-n/4)
	}
}

// TestParallelForGrainRunsCountStripes holds stripes to the cut
// ParallelForGrain makes: for every n in 1..64 over budgets 1..9 (grain
// 1), the stripes it runs number count, each finds its index lo/chunk
// below count, and together they cover [0, n) once.
func TestParallelForGrainRunsCountStripes(t *testing.T) {
	for n := int64(1); n <= 64; n++ {
		for threads := 1; threads <= 9; threads++ {
			count, chunk := stripes(threads, n, 1)
			var ran atomic.Int64
			seen := make([]atomic.Int32, n)
			index := make([]atomic.Int32, count)
			ParallelForGrain(threads, n, 1, func(lo, hi int64) {
				ran.Add(1)
				if s := lo / chunk; s < count {
					index[s].Add(1)
				} else {
					t.Errorf("n %d threads %d: stripe [%d,%d) has index %d, count %d", n, threads, lo, hi, s, count)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			if ran.Load() != count {
				t.Fatalf("n %d threads %d: ran %d stripes, stripes says %d (chunk %d)", n, threads, ran.Load(), count, chunk)
			}
			for s := range index {
				if c := index[s].Load(); c != 1 {
					t.Fatalf("n %d threads %d: stripe index %d ran %d times", n, threads, s, c)
				}
			}
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("n %d threads %d: element %d covered %d times", n, threads, i, c)
				}
			}
		}
	}
}
