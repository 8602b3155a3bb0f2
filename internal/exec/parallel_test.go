package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// fanGraph: one input, k independent unary branches, folded back
// together with a chain of Adds — the smallest graph with a wide wave.
func fanGraph(k int) *graph.Graph {
	g := graph.New("fan")
	g.AddInput("x", tensor.Float32, lattice.FromInts(256))
	ops := []string{"Relu", "Sigmoid", "Neg", "Abs", "Exp", "Tanh"}
	for i := 0; i < k; i++ {
		g.Op(ops[i%len(ops)], fmt.Sprintf("b%d", i), []string{"x"}, []string{fmt.Sprintf("y%d", i)}, nil)
	}
	prev := "y0"
	for i := 1; i < k; i++ {
		out := fmt.Sprintf("s%d", i)
		g.Op("Add", fmt.Sprintf("j%d", i), []string{prev, fmt.Sprintf("y%d", i)}, []string{out}, nil)
		prev = out
	}
	g.AddOutput(prev)
	return g
}

func isControlFlow(n *graph.Node) bool {
	switch n.OpType {
	case "If", "Loop", "Switch", "Combine":
		return true
	}
	return false
}

// partitionWaves levelizes a topological order into contiguous
// antichain waves — the same greedy rule plan.BuildWavefronts applies,
// minus the memory cap (exec tests exercise the executor, not the
// planner).
func partitionWaves(order []*graph.Node) [][]*graph.Node {
	var waves [][]*graph.Node
	var cur []*graph.Node
	produced := map[string]bool{}
	flush := func() {
		if len(cur) > 0 {
			waves = append(waves, cur)
			cur = nil
			produced = map[string]bool{}
		}
	}
	for _, n := range order {
		joins := len(cur) > 0
		if joins && (isControlFlow(n) || isControlFlow(cur[0])) {
			joins = false
		}
		if joins {
			for _, in := range n.Inputs {
				if in != "" && produced[in] {
					joins = false
					break
				}
			}
		}
		if !joins {
			flush()
		}
		cur = append(cur, n)
		for _, o := range n.Outputs {
			if o != "" {
				produced[o] = true
			}
		}
	}
	flush()
	return waves
}

func fanInputs() map[string]*tensor.Tensor {
	x := tensor.New(tensor.Float32, 256)
	rng := tensor.NewRNG(7)
	for i := range x.F {
		x.F[i] = rng.NormFloat32()
	}
	return map[string]*tensor.Tensor{"x": x}
}

// assertIdentical compares two results bit for bit: same outputs, same
// trace event sequence, same skip flags.
func assertIdentical(t *testing.T, seq, par *Result) {
	t.Helper()
	if len(par.Outputs) != len(seq.Outputs) {
		t.Fatalf("outputs: %d parallel vs %d sequential", len(par.Outputs), len(seq.Outputs))
	}
	for name, want := range seq.Outputs {
		got := par.Outputs[name]
		if got == nil {
			t.Fatalf("output %q missing from parallel run", name)
		}
		if len(got.F) != len(want.F) {
			t.Fatalf("output %q length %d vs %d", name, len(got.F), len(want.F))
		}
		for i := range want.F {
			if got.F[i] != want.F[i] {
				t.Fatalf("output %q diverges at %d: %v != %v", name, i, got.F[i], want.F[i])
			}
		}
	}
	if len(par.Trace.Events) != len(seq.Trace.Events) {
		t.Fatalf("trace: %d parallel events vs %d sequential", len(par.Trace.Events), len(seq.Trace.Events))
	}
	for i := range seq.Trace.Events {
		se, pe := seq.Trace.Events[i], par.Trace.Events[i]
		if se.Node != pe.Node || se.Skipped != pe.Skipped {
			t.Fatalf("trace event %d: %s/%v parallel vs %s/%v sequential",
				i, pe.Node.Name, pe.Skipped, se.Node.Name, se.Skipped)
		}
	}
}

func TestWavesBitIdenticalToSequential(t *testing.T) {
	g := fanGraph(6)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	waves := partitionWaves(order)
	wide := 0
	for _, w := range waves {
		if len(w) > wide {
			wide = len(w)
		}
	}
	if wide < 2 {
		t.Fatalf("test graph produced no wide wave (max %d)", wide)
	}
	in := fanInputs()
	seq, err := Run(g, in, Options{Order: order, Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := Run(g, in, Options{Order: order, Waves: waves, Hooks: &Hooks{}, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertIdentical(t, seq, par)
	}
}

func TestWavesWithArenaMatchesSequential(t *testing.T) {
	g := fanGraph(4)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	waves := partitionWaves(order)
	// Disjoint offsets for every intermediate: trivially wave-widened.
	slots := map[string]int{}
	var offsets, sizes []int64
	var off int64
	for _, n := range order {
		for _, o := range n.Outputs {
			slots[o] = len(offsets)
			offsets, sizes = append(offsets, off), append(sizes, 256*4)
			off += 256 * 4
		}
	}
	in := fanInputs()
	seq, err := Run(g, in, Options{Order: order, Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena(slots, offsets, sizes, make([]float32, off/4))
	par, err := Run(g, in, Options{Order: order, Waves: waves, Workers: 4, Hooks: &Hooks{}, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, par)
	if arena.HighWater <= 0 || arena.HighWater > off {
		t.Fatalf("arena high water %d outside (0,%d]", arena.HighWater, off)
	}
}

func TestWavesControlFlowAndSkips(t *testing.T) {
	g := gatedGraph()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	waves := partitionWaves(order)
	for _, gate := range []float32{0, 1} {
		in := map[string]*tensor.Tensor{
			"x":    tensor.FromFloats([]int64{1, 4}, []float32{-2, -1, 1, 2}),
			"gate": tensor.FromFloats(nil, []float32{gate}),
		}
		seq, err := Run(g, in, Options{Order: order, Hooks: &Hooks{}})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(g, in, Options{Order: order, Waves: waves, Hooks: &Hooks{}, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, seq, par)
	}
}

func TestWavesPanicContainedAndPoolDrains(t *testing.T) {
	g := fanGraph(6)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	waves := partitionWaves(order)
	hooks := &Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
		if n.Name == "b3" {
			panic("injected wave-worker fault")
		}
		return nil
	}}
	before := runtime.NumGoroutine()
	_, err = Run(g, fanInputs(), Options{Order: order, Waves: waves, Workers: 4, Hooks: hooks})
	var oe *guard.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *guard.OpError, got %T: %v", err, err)
	}
	if oe.Node != "b3" || !errors.Is(err, guard.ErrPanic) {
		t.Fatalf("panic not attributed to b3: %v", err)
	}
	// The pool must fully drain: no leaked worker goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestWavesCtxCancel(t *testing.T) {
	g := fanGraph(4)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(g, fanInputs(), Options{Order: order, Waves: partitionWaves(order), Workers: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestWavesRejectMismatchedPartition(t *testing.T) {
	g := fanGraph(4)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	waves := partitionWaves(order)
	// Drop the last wave: the partition no longer covers the order.
	short := waves[:len(waves)-1]
	if _, err := Run(g, fanInputs(), Options{Order: order, Waves: short, Workers: 4}); err == nil {
		t.Fatal("truncated wave partition accepted")
	}
}
