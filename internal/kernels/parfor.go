package kernels

import "sync"

// parGrain is the minimum number of scalar elements a stripe must own
// before ParallelFor spawns a goroutine for it. Below this, goroutine
// launch + WaitGroup overhead dominates the arithmetic.
const parGrain = int64(1) << 13

// ParallelFor splits [0,n) into at most `threads` contiguous stripes of
// at least parGrain elements each and runs f on every stripe, clamping
// the stripe count to the work size (n=3, threads=8 yields 3 stripes,
// never a silent single-threaded collapse). Stripes are disjoint, so a
// kernel writing out[lo:hi] per stripe is bit-identical to its
// sequential loop.
func ParallelFor(threads int, n int64, f func(lo, hi int64)) {
	ParallelForGrain(threads, n, parGrain, f)
}

// ParallelForGrain is ParallelFor with an explicit per-stripe floor.
func ParallelForGrain(threads int, n, grain int64, f func(lo, hi int64)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	stripes := int64(threads)
	if stripes > n {
		stripes = n
	}
	if maxStripes := (n + grain - 1) / grain; stripes > maxStripes {
		stripes = maxStripes
	}
	if stripes <= 1 {
		f(0, n)
		return
	}
	chunk := (n + stripes - 1) / stripes
	var wg sync.WaitGroup
	for lo := int64(0); lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
