package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// fanN is large enough that every elementwise kernel of fanGraph splits
// into several stripes at a budget of 4.
const fanN = 1 << 15

// fanGraph: one input, k independent unary branches, folded back
// together with a chain of Adds.
func fanGraph(k int) *graph.Graph {
	g := graph.New("fan")
	g.AddInput("x", tensor.Float32, lattice.FromInts(fanN))
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

func fanInputs() map[string]*tensor.Tensor {
	x := tensor.New(tensor.Float32, fanN)
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
		t.Fatalf("outputs: %d threaded vs %d sequential", len(par.Outputs), len(seq.Outputs))
	}
	for name, want := range seq.Outputs {
		got := par.Outputs[name]
		if got == nil {
			t.Fatalf("output %q missing from threaded run", name)
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
		t.Fatalf("trace: %d threaded events vs %d sequential", len(par.Trace.Events), len(seq.Trace.Events))
	}
	for i := range seq.Trace.Events {
		se, pe := seq.Trace.Events[i], par.Trace.Events[i]
		if se.Node != pe.Node || se.Skipped != pe.Skipped {
			t.Fatalf("trace event %d: %s/%v threaded vs %s/%v sequential",
				i, pe.Node.Name, pe.Skipped, se.Node.Name, se.Skipped)
		}
	}
}

func TestThreadsBitIdenticalToSequential(t *testing.T) {
	g := fanGraph(6)
	in := fanInputs()
	seq, err := Run(g, in, Options{Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 8} {
		par, err := Run(g, in, Options{Hooks: &Hooks{}, Threads: threads})
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		assertIdentical(t, seq, par)
	}
}

func TestThreadsWithArenaMatchesSequential(t *testing.T) {
	g := fanGraph(4)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint offsets for every intermediate.
	slots := map[string]int{}
	var offsets, sizes []int64
	var off int64
	for _, n := range order {
		for _, o := range n.Outputs {
			slots[o] = len(offsets)
			offsets, sizes = append(offsets, off), append(sizes, fanN*4)
			off += fanN * 4
		}
	}
	in := fanInputs()
	seq, err := Run(g, in, Options{Order: order, Hooks: &Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena(slots, offsets, sizes, make([]float32, off/4))
	par, err := Run(g, in, Options{Order: order, Threads: 4, Hooks: &Hooks{}, Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, seq, par)
	if arena.HighWater <= 0 || arena.HighWater > off {
		t.Fatalf("arena high water %d outside (0,%d]", arena.HighWater, off)
	}
}

func TestThreadsControlFlowAndSkips(t *testing.T) {
	g := gatedGraph()
	for _, gate := range []float32{0, 1} {
		in := map[string]*tensor.Tensor{
			"x":    tensor.FromFloats([]int64{1, 4}, []float32{-2, -1, 1, 2}),
			"gate": tensor.FromFloats(nil, []float32{gate}),
		}
		seq, err := Run(g, in, Options{Hooks: &Hooks{}})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Run(g, in, Options{Hooks: &Hooks{}, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, seq, par)
	}
	// If/Loop bodies run with the parent's budget and scratch, never
	// its slots.
	var kept []float32
	parent := &executor{opts: Options{Threads: 4, Arena: &Arena{Slots: map[string]int{"y": 0}, Scratch: &kept}}}
	if sub := parent.subOptions(); sub.Threads != 4 || sub.Arena == nil || sub.Arena.Slots != nil || sub.Arena.Scratch != &kept {
		t.Fatalf("body options %+v: want Threads 4 and a slotless arena with the parent's scratch", sub)
	}
	if sub := (&executor{opts: Options{Threads: 4}}).subOptions(); sub.Arena != nil {
		t.Fatalf("body of a run without an arena got one: %+v", sub.Arena)
	}
}

// TestThreadsStripePanicIsOpError feeds a kernel an input whose data is
// one element shorter than its shape, so the last of four stripes
// indexes out of range on its own goroutine. The panic must come back
// as the node's *guard.OpError, not abort the process.
func TestThreadsStripePanicIsOpError(t *testing.T) {
	g := graph.New("short")
	g.AddInput("x", tensor.Float32, lattice.FromInts(fanN))
	g.Op("Neg", "neg", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	x := &tensor.Tensor{DType: tensor.Float32, Shape: []int64{fanN}, F: make([]float32, fanN-1)}
	_, err := Run(g, map[string]*tensor.Tensor{"x": x}, Options{Threads: 4})
	var oe *guard.OpError
	if !errors.As(err, &oe) || oe.Node != "neg" || !errors.Is(err, guard.ErrPanic) {
		t.Fatalf("want the stripe panic as neg's *guard.OpError, got %T: %v", err, err)
	}
}

func TestThreadsCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(fanGraph(4), fanInputs(), Options{Threads: 4, Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
