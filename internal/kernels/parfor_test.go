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
