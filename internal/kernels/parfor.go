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
//
// A panic inside a stripe is recovered on that stripe's goroutine and,
// once every stripe has finished, the first one in stripe order is
// re-raised on the caller's goroutine, so the caller's recover boundary
// (exec's runKernel) sees it exactly as it would a sequential kernel's.
func ParallelForGrain(threads int, n, grain int64, f func(lo, hi int64)) {
	count, chunk := stripes(threads, n, grain)
	if count == 0 {
		return
	}
	if count == 1 {
		f(0, n)
		return
	}
	panics := make([]any, count)
	var wg sync.WaitGroup
	for s, lo := 0, int64(0); lo < n; s, lo = s+1, lo+chunk {
		wg.Add(1)
		go func(s int, lo, hi int64) {
			defer wg.Done()
			defer func() { panics[s] = recover() }()
			f(lo, hi)
		}(s, lo, min(lo+chunk, n))
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// stripes is how ParallelForGrain cuts [0,n): into count stripes, stripe
// s covering [s·chunk, min((s+1)·chunk, n)). Rounding chunk up can leave
// fewer stripes than the budget allows (n = 9 over 8 threads is 5
// stripes of 2), and count is the stripes cut, not the budget. A kernel
// that hands each stripe its own part of one scratch finds a stripe's
// index as lo/chunk.
func stripes(threads int, n, grain int64) (count, chunk int64) {
	if n <= 0 {
		return 0, 0
	}
	count = min(int64(max(1, threads)), n, (n+max(1, grain)-1)/max(1, grain))
	chunk = (n + count - 1) / count
	return (n + chunk - 1) / chunk, chunk
}
