package rdp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// kernelsRun adapts the kernel dispatcher for the property tests.
func kernelsRun(n *graph.Node, in []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return kernels.Run(n, in, nil)
}

// randomDAG builds a random valid computational graph over shape-
// preserving and shape-transforming ops with a symbolic input.
func randomDAG(r *rand.Rand, nNodes int) *graph.Graph {
	g := graph.New("random")
	g.AddInput("x", tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromInt(4), lattice.FromSym("H"), lattice.FromSym("H")))
	values := []string{"x"}
	unaries := []string{"Relu", "Sigmoid", "Tanh", "Neg", "Exp", "Abs"}
	for i := 0; i < nNodes; i++ {
		out := fmt.Sprintf("v%d", i)
		src := values[r.Intn(len(values))]
		switch r.Intn(4) {
		case 0, 1: // unary
			g.Op(unaries[r.Intn(len(unaries))], fmt.Sprintf("n%d", i), []string{src}, []string{out}, nil)
		case 2: // binary with self (same shape guaranteed)
			other := values[r.Intn(len(values))]
			// Only safe when shapes match; using src twice guarantees it.
			if r.Intn(2) == 0 {
				other = src
			}
			if other != src {
				// Mixed operands may differ in shape; fall back to unary.
				g.Op("Relu", fmt.Sprintf("n%d", i), []string{src}, []string{out}, nil)
			} else {
				g.Op("Add", fmt.Sprintf("n%d", i), []string{src, src}, []string{out}, nil)
			}
		default: // shape op chain
			g.Op("Shape", fmt.Sprintf("n%d", i), []string{src}, []string{out}, nil)
			// Shape outputs are int vectors; don't feed them back into
			// float ops.
			continue
		}
		values = append(values, out)
	}
	g.AddOutput(values[len(values)-1])
	return g
}

// Property: RDP always converges on random DAGs, never errors, and
// every float-tensor value reachable from the input resolves to a
// non-⊤ shape.
func TestQuickRDPConvergesOnRandomDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(r, 3+r.Intn(20))
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid graph: %v", trial, err)
		}
		res, err := Analyze(g, nil, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Iterations > 10 {
			t.Errorf("trial %d: %d iterations", trial, res.Iterations)
		}
		st := res.Statistics()
		if st.ByClass[ClassUndef] > 0 {
			t.Errorf("trial %d: %d unresolved tensors: %v", trial, st.ByClass[ClassUndef], st.Unresolved)
		}
	}
}

// Property: analysis is deterministic — same graph, same fixed point.
func TestQuickRDPDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(r, 10)
		a, err := Analyze(g, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Analyze(g, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for name, ia := range a.Infos {
			if !ia.Equal(b.Infos[name]) {
				t.Fatalf("trial %d: %s differs: %v vs %v", trial, name, ia, b.Infos[name])
			}
		}
	}
}

// Property: the fixed point is consistent with execution — evaluating
// every resolved symbolic shape under the bound env matches the real
// executed shape.
func TestQuickRDPShapesMatchExecution(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		g := randomDAG(r, 8)
		res, err := Analyze(g, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := int64(r.Intn(6) + 2)
		x := tensor.New(tensor.Float32, 1, 4, h, h)
		// Bind the env from the declared input.
		env := map[string]int64{"H": h}
		run, err := execRun(g, x)
		if err != nil {
			t.Fatalf("trial %d: exec: %v", trial, err)
		}
		for name, tt := range run {
			info, ok := res.Infos[name]
			if !ok || info.Shape.Kind != lattice.ShapeRanked {
				continue
			}
			want, err := info.Shape.Eval(env)
			if err != nil {
				continue // depends on un-evaluable symbols
			}
			if !tensor.SameShape(want, tt.Shape) {
				t.Fatalf("trial %d: %s predicted %v, executed %v", trial, name, want, tt.Shape)
			}
		}
	}
}

// execRun executes the graph and returns every value's tensor (outputs
// plus intermediates, reconstructed by running node-by-node).
func execRun(g *graph.Graph, x *tensor.Tensor) (map[string]*tensor.Tensor, error) {
	// Use the kernels directly to keep every intermediate.
	values := map[string]*tensor.Tensor{"x": x}
	for name, t := range g.Initializers {
		values[name] = t
	}
	sorted, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, n := range sorted {
		in := make([]*tensor.Tensor, len(n.Inputs))
		for i, name := range n.Inputs {
			in[i] = values[name]
		}
		out, err := kernelsRun(n, in)
		if err != nil {
			return nil, err
		}
		for i, o := range n.Outputs {
			if o != "" && i < len(out) {
				values[o] = out[i]
			}
		}
	}
	return values, nil
}
