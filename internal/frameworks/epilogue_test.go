package frameworks

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/exec"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/models"
	"repro/internal/rdp"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// fusedAway pins how many nodes the serving rewrite removes per model,
// If bodies included (RaNet folds 3 at the top level and 4 in a body).
var fusedAway = map[string]int{
	"SkipNet": 13, "DGNet": 14, "ConvNet-AIG": 12, "RaNet": 7, "BlockDrop": 9,
	"CodeBERT": 17, "Conformer": 15, "StableDiffusion": 5, "SegmentAnything": 18, "YOLO-V6": 7,
}

func TestServingGraphFusesEpilogues(t *testing.T) {
	for _, b := range models.All() {
		built, err := buildGraph(b)
		if err != nil {
			t.Fatal(err)
		}
		served, err := buildServingGraph(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := built.NumOps() - served.NumOps(); got != fusedAway[b.Name] {
			t.Errorf("%s: %d nodes fused away, want %d", b.Name, got, fusedAway[b.Name])
		}
		if err := served.Validate(); err != nil {
			t.Errorf("%s: served graph: %v", b.Name, err)
		}
	}
}

// sizes are a model's smallest, a middle and its largest input size.
func sizes(b *models.Builder) []int64 {
	steps := (b.MaxSize - b.MinSize) / b.SizeStep
	return []int64{b.MinSize, b.MinSize + steps/2*b.SizeStep, b.MaxSize}
}

// Each model's serving graph, float32 and int8, computes its graph as
// built bit for bit at its smallest, a middle and its largest size:
// exec.Run over both graphs (the int8 pair with the same packed
// weights), and the served compile's planned tier.
func TestServingGraphMatchesBuilt(t *testing.T) {
	for _, b := range models.All() {
		for _, dtype := range []tensor.DType{tensor.Float32, tensor.Int8} {
			cfg := SchedConfig{Quant: QuantConfig{Format: dtype}}
			built, err := CompileSched(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			served, err := CompileServing(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(served.Graph.Nodes) >= len(built.Graph.Nodes) {
				t.Fatalf("%s %v: served graph has %d nodes, built %d", b.Name, dtype, len(served.Graph.Nodes), len(built.Graph.Nodes))
			}
			for _, size := range sizes(b) {
				in := workload.Fixed(b, 1, size, 0.5, uint64(size))[0].Inputs
				tag := fmt.Sprintf("%s %v @%d", b.Name, dtype, size)
				want, err := exec.Run(built.Graph, in, exec.Options{})
				if err != nil {
					t.Fatalf("%s: built: %v", tag, err)
				}
				got, err := exec.Run(served.Graph, in, exec.Options{})
				if err != nil {
					t.Fatalf("%s: served: %v", tag, err)
				}
				sameOutputs(t, tag+" exec.Run", got.Outputs, want.Outputs)
				planned, gr, err := served.GuardedRun(in, GuardOptions{})
				if err != nil {
					t.Fatalf("%s: GuardedRun: %v", tag, err)
				}
				if len(gr.Degradations) > 0 {
					t.Errorf("%s: served run degraded: %v", tag, gr.Degradations)
				}
				sameOutputs(t, tag+" GuardedRun", planned.Outputs, want.Outputs)
			}
		}
	}
}

func sameOutputs(t *testing.T, tag string, got, want map[string]*tensor.Tensor) {
	t.Helper()
	for name, w := range want {
		g := got[name]
		if g == nil || !slices.Equal(g.Shape, w.Shape) || g.DType != w.DType {
			t.Fatalf("%s: output %s is %v, want %v%v", tag, name, g, w.DType, w.Shape)
		}
		for i := range w.F {
			if math.Float32bits(g.F[i]) != math.Float32bits(w.F[i]) {
				t.Fatalf("%s: output %s[%d] = %v, want %v", tag, name, i, g.F[i], w.F[i])
			}
		}
		if !slices.Equal(g.I, w.I) || !slices.Equal(g.B, w.B) {
			t.Fatalf("%s: output %s differs", tag, name)
		}
	}
}

// The rewrite only makes real what §4.2's fusion planned: every chain
// it folds into a MatMul or Conv — the node and the ops it absorbed —
// lies inside one fusion.Fuse(…, fusion.RDP) group of the graph as
// built, If bodies included.
func TestEpiloguesLieInRDPGroups(t *testing.T) {
	for _, b := range models.All() {
		built, err := buildGraph(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rdp.Analyze(built, nil, rdp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan := fusion.Fuse(built, res.Infos, fusion.RDP)
		forEachBody(built, res.Infos, func(body *graph.Graph, bres *rdp.Result) {
			mergeFusion(plan, fusion.Fuse(body, bres.Infos, fusion.RDP))
		})
		producer := map[string]*graph.Node{}
		eachNode(built, func(n *graph.Node) {
			for _, o := range n.Outputs {
				producer[o] = n
			}
		})
		served, err := buildServingGraph(b)
		if err != nil {
			t.Fatal(err)
		}
		chains := 0
		eachNode(served, func(f *graph.Node) {
			last := producer[f.Outputs[0]]
			if last.Name == f.Name {
				return // nothing folded into f
			}
			chains++
			group := groupOfName(plan, built, f.Name)
			// Walk the built chain back from its last op to f.
			for n := last; n.Name != f.Name; {
				if plan.NodeGroup[n] != group {
					t.Errorf("%s: %s (%s) folded into %s lies outside its RDP fusion group", b.Name, n.Name, n.OpType, f.Name)
				}
				var up *graph.Node
				for _, in := range n.Inputs {
					if p := producer[in]; p != nil {
						up = p
					}
				}
				if up == nil {
					t.Fatalf("%s: %s reaches no producer on the way back to %s", b.Name, n.Name, f.Name)
				}
				n = up
			}
		})
		if chains == 0 {
			t.Errorf("%s: no chain was folded", b.Name)
		}
	}
}

// groupOfName is the RDP fusion group of the built node named name.
func groupOfName(plan *fusion.Plan, g *graph.Graph, name string) int {
	id := -1
	eachNode(g, func(n *graph.Node) {
		if n.Name == name {
			id = plan.NodeGroup[n]
		}
	})
	return id
}

// eachNode calls fn with every node of g and of the bodies nested in it.
func eachNode(g *graph.Graph, fn func(n *graph.Node)) {
	for _, n := range g.Nodes {
		fn(n)
		for _, a := range n.Attrs {
			if a.Kind == graph.AttrGraph && a.G != nil {
				eachNode(a.G, fn)
			}
		}
	}
}

// The rewrite absorbs a value only when the op after it is its one
// reader and it is no graph output, and only the scale, bias and
// activation its kernel takes.
func TestFuseEpiloguesRules(t *testing.T) {
	const k, n = 3, 4
	build := func(chain func(g *graph.Graph)) *graph.Graph {
		g := graph.New("t")
		g.AddInput("x", tensor.Float32, lattice.FromInts(2, k))
		g.AddInitializer("w", tensor.New(tensor.Float32, k, n))
		g.AddInitializer("bias", tensor.New(tensor.Float32, n))
		g.AddInitializer("short", tensor.New(tensor.Float32, n-1))
		g.AddInitializer("s", tensor.Scalar(0.5))
		g.AddInitializer("v", tensor.New(tensor.Float32, 2))
		g.Op("MatMul", "mm", []string{"x", "w"}, []string{"m"}, nil)
		chain(g)
		return g
	}
	for _, tc := range []struct {
		name    string
		chain   func(g *graph.Graph)
		removed int
		inputs  []string // the MatMul's inputs afterwards
		act     string
	}{
		{"scale, bias and Gelu", func(g *graph.Graph) {
			g.Op("Mul", "mul", []string{"s", "m"}, []string{"a"}, nil)
			g.Op("Add", "add", []string{"a", "bias"}, []string{"b"}, nil)
			g.Op("Gelu", "act", []string{"b"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 3, []string{"x", "w", "bias", "s"}, "Gelu"},
		{"scale alone", func(g *graph.Graph) {
			g.Op("Mul", "mul", []string{"m", "s"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 1, []string{"x", "w", "", "s"}, ""},
		{"Relu alone", func(g *graph.Graph) {
			g.Op("Relu", "act", []string{"m"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 1, []string{"x", "w"}, "Relu"},
		{"a bias after the activation stays out", func(g *graph.Graph) {
			g.Op("Relu", "act", []string{"m"}, []string{"a"}, nil)
			g.Op("Add", "add", []string{"a", "bias"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 1, []string{"x", "w"}, "Relu"},
		{"a scale after the bias stays out", func(g *graph.Graph) {
			g.Op("Add", "add", []string{"m", "bias"}, []string{"a"}, nil)
			g.Op("Mul", "mul", []string{"a", "s"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 1, []string{"x", "w", "bias"}, ""},
		{"the product is a graph output", func(g *graph.Graph) {
			g.Op("Add", "add", []string{"m", "bias"}, []string{"y"}, nil)
			g.AddOutput("y")
			g.AddOutput("m")
		}, 0, []string{"x", "w"}, ""},
		{"the product has two readers", func(g *graph.Graph) {
			g.Op("Add", "add", []string{"m", "bias"}, []string{"y"}, nil)
			g.Op("Relu", "act", []string{"m"}, []string{"z"}, nil)
			g.AddOutput("y")
			g.AddOutput("z")
		}, 0, []string{"x", "w"}, ""},
		{"a bias of the wrong length", func(g *graph.Graph) {
			g.Op("Add", "add", []string{"m", "short"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 0, []string{"x", "w"}, ""},
		{"a scale of two values", func(g *graph.Graph) {
			g.Op("Mul", "mul", []string{"m", "v"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 0, []string{"x", "w"}, ""},
		{"a bias that is no constant", func(g *graph.Graph) {
			g.AddInput("b", tensor.Float32, lattice.FromInts(n))
			g.Op("Add", "add", []string{"m", "b"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 0, []string{"x", "w"}, ""},
		{"an activation the kernel lacks", func(g *graph.Graph) {
			g.Op("Sigmoid", "act", []string{"m"}, []string{"y"}, nil)
			g.AddOutput("y")
		}, 0, []string{"x", "w"}, ""},
	} {
		g := build(tc.chain)
		if got := fuseEpilogues(g); got != tc.removed {
			t.Errorf("%s: removed %d nodes, want %d", tc.name, got, tc.removed)
		}
		mm := g.Nodes[0]
		if !slices.Equal(mm.Inputs, tc.inputs) || mm.AttrString("activation", "") != tc.act {
			t.Errorf("%s: MatMul reads %q with activation %q, want %q and %q",
				tc.name, mm.Inputs, mm.AttrString("activation", ""), tc.inputs, tc.act)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
