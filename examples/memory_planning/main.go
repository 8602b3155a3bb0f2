// Memory planning: derive an intermediate-tensor liveness program from a
// real YOLO-v6 execution trace and compare the three offset planners of
// §4.4.1 — SoD²'s peak-first bidirectional greedy, the best-fit greedy
// baseline, and the information-theoretic lower bound — plus what the
// arena looks like without any plan (the dynamic-allocator pool), and
// what the planned tier touches when the region proof's layout is
// fitted to this request.
package main

import (
	"fmt"
	"log"
	"slices"

	"repro/internal/frameworks"
	"repro/internal/guard"
	"repro/internal/memplan"
	"repro/internal/workload"

	sod2 "repro"
)

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func main() {
	b, err := sod2.BuildModel("YOLO-V6")
	if err != nil {
		log.Fatal(err)
	}
	c, err := frameworks.Compile(b)
	if err != nil {
		log.Fatal(err)
	}
	s := workload.Fixed(b, 1, 416, 0.5, 7)[0]
	res, err := c.Execute(s, false, frameworks.OrderPlanned)
	if err != nil {
		log.Fatal(err)
	}

	// The liveness program: every intermediate tensor with its birth and
	// death step under the planned order; fusion-internal tensors never
	// materialize at all.
	prog := frameworks.TraceProgram(c.Graph, res.Trace, c.FusionRDP.Internal)
	fmt.Printf("trace: %d buffers over %d steps\n", len(prog.Bufs), prog.Steps)
	fmt.Printf("lower bound (peak live):     %8.2f MB\n", mb(prog.PeakLive()))

	pf := memplan.PeakFirst(prog)
	if err := pf.Validate(prog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SoD2 peak-first arena:       %8.2f MB\n", mb(pf.ArenaSize))

	bf := memplan.BestFit(prog)
	if err := bf.Validate(prog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best-fit greedy arena:       %8.2f MB\n", mb(bf.ArenaSize))

	// No plan at all: the lifetimes are unknown, deallocation is
	// deferred, and buffers go through a caching pool allocator.
	noPlan := frameworks.TraceProgramDeferred(c.Graph, res.Trace, nil, 6)
	fmt.Printf("no plan (deferred frees):    %8.2f MB peak live\n", mb(noPlan.PeakLive()))

	// Execute *into* the planned arena: the runtime half of DMP. The
	// region proof's worst-case layout is fitted to this request's shapes
	// on the planned tier; the outputs are identical to heap execution.
	rep := c.Verify()
	arenaRes, gr, err := c.GuardedRun(s.Inputs, frameworks.GuardOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if gr.Tier != guard.TierPlanned {
		log.Fatalf("served on the %v tier, want planned: %+v", gr.Tier, gr.Degradations)
	}
	fmt.Printf("arena-backed execution:      %8.2f MB high water (proven worst case %.2f MB, %d placed buffers)\n",
		mb(gr.ArenaHighWater), mb(rep.Mem.ArenaSize), rep.Mem.Buffers)
	for name, ref := range res.Outputs {
		if got := arenaRes.Outputs[name]; got == nil || !slices.Equal(got.F, ref.F) {
			log.Fatalf("arena execution diverged on %s", name)
		}
	}

	// A few of the biggest placements.
	fmt.Println("\nlargest buffers in the peak-first plan:")
	shown := 0
	for _, buf := range prog.Bufs {
		if buf.Size >= 1<<20 && shown < 6 {
			fmt.Printf("  %-28s %6.2f MB @ offset %8d, steps [%d,%d]\n",
				buf.Name, mb(buf.Size), pf.Offsets[buf.Name], buf.Birth, buf.Death)
			shown++
		}
	}
}
