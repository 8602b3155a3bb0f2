package sod2

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// mallocsOf counts the heap allocations of one call of f (the fewest of
// three, so a stray background allocation cannot fail the comparison).
func mallocsOf(f func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n < best {
			best = n
		}
	}
	return best
}

// TestInferExecutesOnce: a facade inference is one guarded execution plus
// the cost model over its trace — it must not allocate like two runs, nor
// per tensor element.
func TestInferExecutesOnce(t *testing.T) {
	for _, tc := range []struct {
		model string
		size  int64
	}{{"CodeBERT", 64}, {"SkipNet", 224}} {
		b, err := BuildModel(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		inputs := NewSample(b, tc.size, 0.5, 7).Inputs
		if _, _, err := c.Infer(inputs); err != nil { // prove the region
			t.Fatal(err)
		}
		bare := mallocsOf(func() {
			if _, _, err := c.inner.GuardedRun(inputs, GuardOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		infer := mallocsOf(func() {
			if _, _, err := c.Infer(inputs); err != nil {
				t.Fatal(err)
			}
		})
		// Allocation is per operator, not per element: a broadcasting
		// kernel that allocates per element costs CodeBERT@64 > 250 000.
		if infer >= 5000 {
			t.Errorf("%s@%d: Infer made %d allocations, want < 5000", tc.model, tc.size, infer)
		}
		if float64(infer) > 1.25*float64(bare) {
			t.Errorf("%s@%d: Infer made %d allocations, a bare guarded run %d (ratio %.2f, want <= 1.25)",
				tc.model, tc.size, infer, bare, float64(infer)/float64(bare))
		}
	}
}

// requireSameModeled fails unless the facade report's modeled numbers
// equal the engine's, once the facade's measured "replan" phase (which
// the engine, executing the planned order unguarded, never has) is set
// aside.
func requireSameModeled(t *testing.T, tag string, got, want Report) {
	t.Helper()
	phases := map[string]float64{}
	for k, v := range got.Phases {
		phases[k] = v
	}
	replan := phases["replan"]
	delete(phases, "replan")
	if got.LatencyMS != want.LatencyMS+replan || got.PeakMemBytes != want.PeakMemBytes ||
		!reflect.DeepEqual(phases, want.Phases) {
		t.Errorf("%s: facade report (%v ms, %d B, %v) != engine report (%v ms, %d B, %v)",
			tag, got.LatencyMS, got.PeakMemBytes, got.Phases,
			want.LatencyMS, want.PeakMemBytes, want.Phases)
	}
}

// TestReportMatchesEngine pins the modeled numbers: the facade prices a
// request from its own guarded trace, and must report exactly what the
// evaluation engine reports for the same inputs from its separate
// unguarded execution — on the planned tier for in-region inputs, and
// on the dynamic tier for inputs that violate an analyzed fact.
func TestReportMatchesEngine(t *testing.T) {
	eng := frameworks.NewSoD2(frameworks.FullSoD2())
	offPlan := map[string]int64{"YOLO-V6": 232, "CodeBERT": 400} // off the stride; past MaxSize
	for _, b := range Models() {
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int64{b.MinSize, b.MinSize + ((b.MaxSize-b.MinSize)/b.SizeStep)*b.SizeStep}
		if off, ok := offPlan[b.Name]; ok {
			sizes = append(sizes, off)
		}
		for i, size := range sizes {
			s := NewSample(b, size, 0.5, 11)
			want, err := eng.Run(c.inner, s, SD888CPU)
			if err != nil {
				t.Fatal(err)
			}
			_, got, err := c.Infer(s.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			wantTier := TierPlanned
			if i >= 2 {
				wantTier = TierDynamic
			}
			if got.FallbackTier != wantTier {
				t.Fatalf("%s@%d: served on tier %v, want %v", b.Name, size, got.FallbackTier, wantTier)
			}
			if _, replanned := got.Phases["replan"]; replanned {
				t.Errorf("%s@%d: replan phase on tier %v", b.Name, size, got.FallbackTier)
			}
			requireSameModeled(t, fmt.Sprintf("%s@%d", b.Name, size), got, want)
		}
	}
}

// TestReportReplanAddsOnlyReplanPhase: a request whose shapes contradict
// the analysis is re-planned; its report is the engine's plus the
// measured re-plan phase, and nothing else moves.
func TestReportReplanAddsOnlyReplanPhase(t *testing.T) {
	b := &ModelBuilder{
		Name: "toy-fixed", MinSize: 4, MaxSize: 4, SizeStep: 1,
		Build: func() *Graph {
			g := NewGraph("toy")
			g.AddInput("x", tensor.Float32, lattice.FromInts(4))
			g.Op("Relu", "r", []string{"x"}, []string{"h"}, nil)
			g.Op("Neg", "n", []string{"h"}, []string{"y"}, nil)
			g.AddOutput("y")
			return g
		},
		Inputs: func(rng *tensor.RNG, size int64, _ float32) map[string]*Tensor {
			return map[string]*Tensor{"x": tensor.RandomFloats(rng, 1.0, size)}
		},
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	// 8 elements against a shape analyzed as exactly 4: contradiction.
	s := Sample{Inputs: b.Inputs(tensor.NewRNG(1), 8, 0)}
	want, err := frameworks.NewSoD2(frameworks.FullSoD2()).Run(c.inner, s, SD888CPU)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := c.Infer(s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got.FallbackTier != TierReplan || got.Phases["replan"] <= 0 {
		t.Fatalf("tier %v, phases %v: want the replan tier with its cost on record", got.FallbackTier, got.Phases)
	}
	requireSameModeled(t, "toy-fixed@8", got, want)
}

// regionIfModel is a model whose If predicate the sampling region proves
// constant (L ∈ [2,16] makes L > 1 always true), so the specializer
// inlines the then-arm under a region-dependent certificate.
func regionIfModel() *ModelBuilder {
	body := func(name, op string) *Graph {
		g := NewGraph(name)
		g.AddInput(name+".bx", tensor.Float32, lattice.UndefShape())
		g.Op(op, name+".bop", []string{name + ".bx"}, []string{name + ".by"}, nil)
		g.AddOutput(name + ".by")
		return g
	}
	return &ModelBuilder{
		Name: "region-if", MinSize: 2, MaxSize: 16, SizeStep: 2,
		Build: func() *Graph {
			g := NewGraph("region-if")
			g.AddInput("x", tensor.Float32, lattice.Ranked(
				lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L")), lattice.FromInt(8)))
			g.AddInitializer("idx1", tensor.ScalarInt(1))
			g.AddInitializer("one", tensor.ScalarInt(1))
			g.Op("Shape", "shp", []string{"x"}, []string{"xs"}, nil)
			g.Op("Gather", "gl", []string{"xs", "idx1"}, []string{"lseq"}, nil)
			g.Op("Greater", "gt", []string{"lseq", "one"}, []string{"cond"}, nil)
			g.Op("If", "if1", []string{"cond", "x"}, []string{"y"}, map[string]NodeAttr{
				"then_branch": GraphAttr(body("then", "Relu")),
				"else_branch": GraphAttr(body("else", "Neg")),
			})
			g.AddOutput("y")
			return g
		},
		Inputs: func(rng *tensor.RNG, size int64, _ float32) map[string]*Tensor {
			return map[string]*Tensor{"x": tensor.RandomFloats(rng, 1.0, 1, size, 8)}
		},
	}
}

// TestReportSpecFallback: a request outside a region-dependent
// certificate's region is served by the original graph, and the report
// must say so instead of claiming the specialized graph served it.
func TestReportSpecFallback(t *testing.T) {
	b := regionIfModel()
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !c.inner.SpecCert.RegionDependent() {
		t.Fatal("fixture must compile under a region-dependent certificate")
	}

	_, in, err := c.Infer(b.Inputs(tensor.NewRNG(1), 4, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !in.Specialized || in.SpecFallback || in.FallbackTier != TierPlanned {
		t.Errorf("in-region: specialized=%v fallback=%v tier=%v, want true/false/planned",
			in.Specialized, in.SpecFallback, in.FallbackTier)
	}

	x := b.Inputs(tensor.NewRNG(1), 1, 0) // L = 1: the else-arm the specializer removed
	outs, out, err := c.Infer(x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Specialized || !out.SpecFallback || out.FallbackTier != TierDynamic {
		t.Errorf("out-of-region: specialized=%v fallback=%v tier=%v, want false/true/dynamic",
			out.Specialized, out.SpecFallback, out.FallbackTier)
	}
	for i, v := range x["x"].F {
		if outs["y"].F[i] != -v {
			t.Fatalf("out-of-region output %d = %v, want the else-arm's %v", i, outs["y"].F[i], -v)
		}
	}
}
