package frameworks

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// poisonKeptArenas fills every buffer and scratch on c's arena stack
// with NaN across its whole capacity: a planned run that read a slot or
// its scratch before writing it, or an output still viewing a kept
// buffer, would show a NaN.
func poisonKeptArenas(c *Compiled) {
	c.arenas.mu.Lock()
	defer c.arenas.mu.Unlock()
	nan := float32(math.NaN())
	for _, ab := range c.arenas.free {
		for _, s := range [][]float32{ab.buf[:cap(ab.buf)], ab.scratch[:cap(ab.scratch)]} {
			for i := range s {
				s[i] = nan
			}
		}
	}
}

// TestArenaReuseBitIdentical: planned requests on one Compiled share its
// kept arena buffers and scratch, each with the proven layout fitted to
// its own shapes — at sizes max → min → max → mid, one after another and
// then from four goroutines at once, two of them at a thread budget of
// 4, every kept buffer and scratch filled with NaN before and after
// each request.
// For a float32 and an int8 compile alike, every request is served by
// the region proof and matches exec.Run's heap run bit for bit (on the
// uncompiled graph for float32, on the packed one for int8), and the
// stack never holds more buffers than runs were in flight.
func TestArenaReuseBitIdentical(t *testing.T) {
	for _, b := range models.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, dtype := range []tensor.DType{tensor.Float32, tensor.Int8} {
				t.Run(dtype.String(), func(t *testing.T) { testArenaReuse(t, b, dtype) })
			}
		})
	}
}

func testArenaReuse(t *testing.T, b *models.Builder, dtype tensor.DType) {
	c, err := CompileSched(b, SchedConfig{Quant: QuantConfig{Format: dtype}})
	if err != nil {
		t.Fatal(err)
	}
	oracleGraph := b.Build()
	if dtype != tensor.Float32 {
		oracleGraph = c.Graph
	}
	steps := (b.MaxSize - b.MinSize) / b.SizeStep
	largest := b.MinSize + steps*b.SizeStep
	sizes := []int64{largest, b.MinSize, largest, b.MinSize + steps/2*b.SizeStep}
	inputs := make([]map[string]*tensor.Tensor, len(sizes))
	oracles := make([]map[string]*tensor.Tensor, len(sizes))
	for i, size := range sizes {
		inputs[i] = b.Inputs(tensor.NewRNG(uint64(size)), size, 0.5)
		res, err := exec.Run(oracleGraph, inputs[i], exec.Options{})
		if err != nil {
			t.Fatalf("oracle @%d: %v", size, err)
		}
		oracles[i] = res.Outputs
	}
	serve := func(i, threads int) string {
		poisonKeptArenas(c)
		res, gr, err := c.GuardedRun(inputs[i], GuardOptions{Threads: threads})
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
		if d := serve(i, 1); d != "" {
			t.Fatalf("sequential @%d: %s", size, d)
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			threads := 1 + 3*(g%2)
			for k := range sizes {
				i := (g + k) % len(sizes)
				if d := serve(i, threads); d != "" {
					t.Errorf("goroutine %d @%d, %d threads: %s", g, sizes[i], threads, d)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(c.arenas.free); n > goroutines {
		t.Errorf("%d kept buffers after at most %d concurrent runs", n, goroutines)
	}
}

// TestFittedArenaAllocatesLessThanWorstCase: once a buffer is kept, a
// steady-state planned request allocates fewer bytes in all than the
// worst-case arena every planned request used to allocate for itself
// (at the smallest size) and, at a middle size, fewer than half the
// intermediate bytes its own trace counts (Trace.TotalAllocBytes):
// kernels write the planned intermediates into the arena instead of
// allocating each one and copying it in.
func TestFittedArenaAllocatesLessThanWorstCase(t *testing.T) {
	for _, name := range []string{"CodeBERT", "SegmentAnything"} {
		c := compileModel(t, name)
		b := c.Builder
		for _, size := range []int64{b.MinSize, b.MinSize + (b.MaxSize-b.MinSize)/b.SizeStep/2*b.SizeStep} {
			in := b.Inputs(tensor.NewRNG(5), size, 0.5)
			var intermediates int64
			run := func() {
				res, gr, err := c.GuardedRun(in, GuardOptions{})
				if err != nil || !gr.RegionCacheHit {
					t.Fatalf("%s@%d: region hit %v, err %v", name, size, gr.RegionCacheHit, err)
				}
				intermediates = res.Trace.TotalAllocBytes
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
			worst := uint64(c.Verify().Mem.ArenaSize)
			t.Logf("%s@%d: %d bytes allocated per request, %d bytes of intermediates, worst-case arena %d",
				name, size, best, intermediates, worst)
			if best >= worst {
				t.Errorf("%s@%d: a request allocated %d bytes, not below the %d-byte worst-case arena", name, size, best, worst)
			}
			if size > b.MinSize && best >= uint64(intermediates)/2 {
				t.Errorf("%s@%d: a request allocated %d bytes, not below half its %d bytes of intermediates",
					name, size, best, intermediates)
			}
		}
	}
}

// placedHighWater is the arena high water of a planned request as the
// executor defines it: the highest byte any placed tensor — a float32
// output of a top-level kernel node with a slot — reaches in the layout
// fitted to the request. Computed here from a heap run's trace, it does
// not depend on whether kernels wrote into their slots or were copied in.
func placedHighWater(t *testing.T, c *Compiled, inputs map[string]*tensor.Tensor) int64 {
	t.Helper()
	env, err := c.Contract().BindInputs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	a := (&arenaBuf{}).fit(c.Verify().Mem.Layout, c.Infos, env)
	res, err := exec.Run(c.Graph, inputs, exec.Options{Order: c.ExecPlan.Order, Hooks: &exec.Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	top := map[*graph.Node]bool{}
	for _, n := range c.Graph.Nodes {
		top[n] = true
	}
	var hw int64
	for _, ev := range res.Trace.Events {
		switch ev.OpType {
		case "Switch", "Combine", "If", "Loop":
			continue
		}
		if !top[ev.Node] {
			continue
		}
		for k, name := range ev.OutNames {
			if slot, ok := a.Slots[name]; ok {
				hw = max(hw, a.Offsets[slot]+ev.OutBytes[k])
			}
		}
	}
	return hw
}

// Arena-backed execution must produce exactly the same outputs as
// individually-allocated execution for every model at two sizes — the
// end-to-end check that the fitted layout never overlaps two
// concurrently-live tensors — and touch far fewer bytes than allocating
// every intermediate separately. The reported high water is exactly the
// highest byte a placed tensor reaches: writing in place moves it
// neither up nor down.
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
				if want := placedHighWater(t, c, s.Inputs); gr.ArenaHighWater != want {
					t.Errorf("size %d: arena high water %d, want %d", size, gr.ArenaHighWater, want)
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
