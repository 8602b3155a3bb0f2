package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// Tests for the guarded-execution hooks: panic containment, loop caps,
// per-inference contexts, allocation hooks, and arena budgets.

func reluChain(n int) *graph.Graph {
	g := graph.New("chain")
	g.AddInput("x", tensor.Float32, lattice.FromInts(4))
	prev := "x"
	for i := 0; i < n; i++ {
		out := "v" + string(rune('a'+i))
		g.Op("Relu", "r"+string(rune('a'+i)), []string{prev}, []string{out}, nil)
		prev = out
	}
	g.AddOutput(prev)
	return g
}

func TestPanicContainedAsOpError(t *testing.T) {
	// A Combine with no output makes execCombine index n.Outputs[0] out
	// of range — a real panic that must surface as *guard.OpError.
	g := graph.New("panics")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2))
	g.Op("Combine", "cb", []string{"x"}, nil, nil)
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 2)}, Options{})
	var oe *guard.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *guard.OpError, got %v", err)
	}
	if oe.Op != "Combine" || !errors.Is(err, guard.ErrPanic) {
		t.Errorf("contained panic = %+v", oe)
	}
}

func TestKernelErrorWrappedAsOpError(t *testing.T) {
	g := graph.New("bad")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2, 3))
	g.AddInput("y", tensor.Float32, lattice.FromInts(4, 5))
	g.Op("MatMul", "mm", []string{"x", "y"}, []string{"z"}, nil)
	g.AddOutput("z")
	_, err := Run(g, map[string]*tensor.Tensor{
		"x": tensor.New(tensor.Float32, 2, 3),
		"y": tensor.New(tensor.Float32, 4, 5),
	}, Options{})
	var oe *guard.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *guard.OpError, got %v", err)
	}
	if oe.Node != "mm" || len(oe.InputShapes) != 2 || oe.InputShapes[1][0] != 4 {
		t.Errorf("structured fields = %+v", oe)
	}
}

func loopGraph(trip int64) *graph.Graph {
	body := graph.New("body")
	body.AddInput("i", tensor.Int64, lattice.FromInts())
	body.AddInput("c", tensor.Bool, lattice.FromInts())
	body.AddInput("acc", tensor.Float32, lattice.FromInts(1))
	body.AddInitializer("t", tensor.ScalarBool(true))
	body.Op("Relu", "r", []string{"acc"}, []string{"acc2"}, nil)
	body.AddOutput("t")
	body.AddOutput("acc2")

	g := graph.New("looper")
	g.AddInitializer("trip", tensor.ScalarInt(trip))
	g.AddInitializer("cond", tensor.ScalarBool(true))
	g.AddInput("x", tensor.Float32, lattice.FromInts(1))
	g.Op("Loop", "lp", []string{"trip", "cond", "x"}, []string{"y"},
		map[string]graph.AttrValue{"body": graph.GraphAttr(body)})
	g.AddOutput("y")
	return g
}

// cappedLoopGraph is loopGraph with the Loop node's static trip bound
// set to limit, which tightens LoopTripCap for that loop.
func cappedLoopGraph(trip, limit int64) *graph.Graph {
	g := loopGraph(trip)
	g.Nodes[0].Attrs["static_max_trip"] = graph.IntAttr(limit)
	return g
}

func TestLoopTripCapReturnsError(t *testing.T) {
	g := cappedLoopGraph(1<<40, 10) // corrupted/hostile trip count
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1)}, Options{})
	if err == nil || !strings.Contains(err.Error(), "trip cap 10") {
		t.Fatalf("want loop-cap error, got %v", err)
	}
	// Under the cap the loop completes normally.
	if _, err := Run(cappedLoopGraph(5, 10), map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1)},
		Options{}); err != nil {
		t.Fatalf("run under cap: %v", err)
	}
}

func TestContextCancelAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := reluChain(3)
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 4)},
		Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestContextCancelInsideLoopBody(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := loopGraph(1 << 30)
	iters := 0
	hooks := &Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
		iters++
		if iters == 5 {
			cancel() // cancel mid-loop: the Loop must notice
		}
		return nil
	}}
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1)},
		Options{Ctx: ctx, Hooks: hooks})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled from loop body, got %v", err)
	}
	if iters > 8 {
		t.Errorf("loop kept running after cancellation: %d body iterations", iters)
	}
}

func TestPreKernelHookInjectsStructuredError(t *testing.T) {
	g := reluChain(3)
	boom := errors.New("injected")
	count := 0
	hooks := &Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
		count++
		if count == 2 {
			return boom
		}
		return nil
	}}
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 4)},
		Options{Hooks: hooks})
	var oe *guard.OpError
	if !errors.As(err, &oe) || !errors.Is(err, boom) {
		t.Fatalf("want wrapped injected error, got %v", err)
	}
	if oe.Node != "rb" {
		t.Errorf("fault at %s, want rb", oe.Node)
	}
}

func TestOnAllocHookOOM(t *testing.T) {
	g := reluChain(3)
	allocs := 0
	hooks := &Hooks{OnAlloc: func(name string, b int64) error {
		allocs++
		if allocs == 2 {
			return ErrArenaExhausted
		}
		return nil
	}}
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 4)},
		Options{Hooks: hooks})
	if !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("want ErrArenaExhausted, got %v", err)
	}
}

func TestArenaFaultClass(t *testing.T) {
	g := reluChain(1)
	over := oneSlot("va", 0, 16, 4)
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 4)},
		Options{Arena: over})
	if !errors.Is(err, ErrArenaOverflow) || !IsArenaFault(err) {
		t.Errorf("overflow fault: %v", err)
	}
	mis := oneSlot("va", 2, 16, 64)
	_, err = Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 4)},
		Options{Arena: mis})
	if !errors.Is(err, ErrArenaMisaligned) || !IsArenaFault(err) {
		t.Errorf("misaligned fault: %v", err)
	}
}

func TestPostKernelHookMutatesOutputs(t *testing.T) {
	g := reluChain(1)
	hooks := &Hooks{PostKernel: func(n *graph.Node, out []*tensor.Tensor) error {
		for _, o := range out {
			if o != nil && o.DType == tensor.Float32 {
				o.Fill(7)
			}
		}
		return nil
	}}
	res, err := Run(g, map[string]*tensor.Tensor{
		"x": tensor.FromFloats([]int64{4}, []float32{-1, 2, -3, 4})}, Options{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["va"].F[0] != 7 {
		t.Errorf("post hook did not mutate: %v", res.Outputs["va"].F)
	}
}
