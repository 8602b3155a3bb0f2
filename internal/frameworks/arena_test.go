package frameworks

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/guard"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// poisonKeptArenas fills every buffer on c's arena stack with NaN across
// its whole capacity: a planned run that read a slot before writing it,
// or an output still viewing a kept buffer, would show a NaN.
func poisonKeptArenas(c *Compiled) {
	c.arenas.mu.Lock()
	defer c.arenas.mu.Unlock()
	nan := float32(math.NaN())
	for _, ab := range c.arenas.free {
		buf := ab.buf[:cap(ab.buf)]
		for i := range buf {
			buf[i] = nan
		}
	}
}

// TestArenaReuseBitIdentical: planned requests on one Compiled share its
// kept arena buffers, each with the proven layout fitted to its own
// shapes — at sizes max → min → max → mid, one after another and then
// from four goroutines at once, every kept buffer filled with NaN before
// and after each request. Every request is served by the region proof and matches
// exec.Run on the uncompiled graph bit for bit, and the stack never
// holds more buffers than runs were in flight.
func TestArenaReuseBitIdentical(t *testing.T) {
	for _, b := range models.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			steps := (b.MaxSize - b.MinSize) / b.SizeStep
			largest := b.MinSize + steps*b.SizeStep
			sizes := []int64{largest, b.MinSize, largest, b.MinSize + steps/2*b.SizeStep}
			inputs := make([]map[string]*tensor.Tensor, len(sizes))
			oracles := make([]map[string]*tensor.Tensor, len(sizes))
			for i, size := range sizes {
				inputs[i] = b.Inputs(tensor.NewRNG(uint64(size)), size, 0.5)
				res, err := exec.Run(b.Build(), inputs[i], exec.Options{})
				if err != nil {
					t.Fatalf("oracle @%d: %v", size, err)
				}
				oracles[i] = res.Outputs
			}
			serve := func(i int) string {
				poisonKeptArenas(c)
				res, gr, err := c.GuardedRun(inputs[i], GuardOptions{})
				poisonKeptArenas(c) // an output still viewing its run's buffer turns NaN
				switch {
				case err != nil:
					return err.Error()
				case gr.Tier != guard.TierPlanned || !gr.RegionCacheHit:
					return fmt.Sprintf("served on %v (region hit %v), want the region-proven planned rung", gr.Tier, gr.RegionCacheHit)
				}
				return bitDiff(res.Outputs, oracles[i])
			}
			for i, size := range sizes {
				if d := serve(i); d != "" {
					t.Fatalf("sequential @%d: %s", size, d)
				}
			}
			const goroutines = 4
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := range sizes {
						i := (g + k) % len(sizes)
						if d := serve(i); d != "" {
							t.Errorf("goroutine %d @%d: %s", g, sizes[i], d)
						}
					}
				}()
			}
			wg.Wait()
			if n := len(c.arenas.free); n > goroutines {
				t.Errorf("%d kept buffers after at most %d concurrent runs", n, goroutines)
			}
		})
	}
}

// TestFittedArenaAllocatesLessThanWorstCase: once a buffer is kept, a
// small in-region request allocates fewer bytes in all than the
// worst-case arena every planned request used to allocate for itself.
func TestFittedArenaAllocatesLessThanWorstCase(t *testing.T) {
	for _, name := range []string{"CodeBERT", "SegmentAnything"} {
		c := compileModel(t, name)
		in := c.Builder.Inputs(tensor.NewRNG(5), c.Builder.MinSize, 0.5)
		run := func() {
			if _, gr, err := c.GuardedRun(in, GuardOptions{}); err != nil || !gr.RegionCacheHit {
				t.Fatalf("%s: region hit %v, err %v", name, gr.RegionCacheHit, err)
			}
		}
		run() // proves the region and keeps a buffer
		best := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		worst := uint64(c.PlannedArenaBytes())
		t.Logf("%s@%d: %d bytes allocated per request, worst-case arena %d", name, c.Builder.MinSize, best, worst)
		if best >= worst {
			t.Errorf("%s@%d: a request allocated %d bytes, not below the %d-byte worst-case arena",
				name, c.Builder.MinSize, best, worst)
		}
	}
}

// Arena-backed execution must produce exactly the same outputs as
// individually-allocated execution for every model at two sizes — the
// end-to-end check that the fitted layout never overlaps two
// concurrently-live tensors — and touch far fewer bytes than allocating
// every intermediate separately.
func TestArenaExecutionMatchesHeapExecution(t *testing.T) {
	for _, b := range models.All() {
		t.Run(b.Name, func(t *testing.T) {
			c, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			steps := (b.MaxSize - b.MinSize) / b.SizeStep
			for _, size := range []int64{b.MinSize, b.MinSize + steps/2*b.SizeStep} {
				s := workload.Fixed(b, 1, size, 0.5, 41)[0]
				ref, err := c.Execute(s, false, OrderPlanned)
				if err != nil {
					t.Fatal(err)
				}
				res, gr, err := c.GuardedRun(s.Inputs, GuardOptions{})
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if gr.Tier != guard.TierPlanned || gr.ArenaHighWater <= 0 {
					t.Fatalf("size %d: tier %v, arena high water %d: want the planned arena", size, gr.Tier, gr.ArenaHighWater)
				}
				requireBitIdentical(t, fmt.Sprintf("%s@%d", b.Name, size), res.Outputs, ref.Outputs)
				if gr.ArenaHighWater >= ref.Trace.TotalAllocBytes {
					t.Errorf("size %d: arena high water %d >= total alloc %d", size, gr.ArenaHighWater, ref.Trace.TotalAllocBytes)
				}
			}
		})
	}
}

// Negative control: the proven layout with every offset smashed to zero
// (every tensor aliases every other) must change the outputs — proving
// the comparison above actually detects overlap bugs.
func TestArenaOverlapIsDetectable(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, rep, err := CompileVerified(b)
	if err != nil || !rep.Mem.Proven {
		t.Fatalf("compile: err %v, proven %v", err, rep != nil && rep.Mem.Proven)
	}
	s := workload.Fixed(b, 1, 96, 0.5, 43)[0]
	ref, err := c.Execute(s, false, OrderPlanned)
	if err != nil {
		t.Fatal(err)
	}
	l := rep.Mem.Layout
	arena := exec.NewArena(l.Index, make([]int64, len(l.Offsets)), l.Sizes, make([]float32, (l.ArenaSize+3)/4))
	got, err := exec.Run(c.Graph, s.Inputs, exec.Options{Order: c.ExecPlan.Order, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	if bitDiff(got.Outputs, ref.Outputs) == "" {
		t.Fatal("fully-aliased arena produced identical outputs — overlap detection has no teeth")
	}
}
