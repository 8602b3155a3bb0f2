package sod2

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/models"
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

// TestInferExecutesOnce: a facade inference is one guarded execution and
// nothing else — no cost model, no trace — so it allocates what a bare
// guarded run does plus the report, never per operator or per element.
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
		if infer > bare+16 {
			t.Errorf("%s@%d: Infer made %d allocations, a bare guarded run %d (want at most 16 more)",
				tc.model, tc.size, infer, bare)
		}
	}
}

// observedRun is one guarded run with a Hooks value attached, which is
// what asks the executor to record the per-operator trace.
func observedRun(t *testing.T, c *Compiled, inputs map[string]*Tensor) (*exec.Result, *GuardReport) {
	t.Helper()
	res, gr, err := c.inner.GuardedRun(inputs, GuardOptions{Hooks: &exec.Hooks{}})
	if err != nil {
		t.Fatal(err)
	}
	return res, gr
}

// requireSameModeled fails unless pricing the observed guarded trace
// gives exactly the engine's modeled numbers for the same inputs.
func requireSameModeled(t *testing.T, tag string, got, want Report) {
	t.Helper()
	if got.LatencyMS != want.LatencyMS || got.PeakMemBytes != want.PeakMemBytes ||
		!reflect.DeepEqual(got.Phases, want.Phases) {
		t.Errorf("%s: priced guarded trace (%v ms, %d B, %v) != engine report (%v ms, %d B, %v)",
			tag, got.LatencyMS, got.PeakMemBytes, got.Phases,
			want.LatencyMS, want.PeakMemBytes, want.Phases)
	}
}

// TestReportMatchesEngine: the cost model over the trace of an observed
// guarded run prices a request exactly as the evaluation engine does from
// its own unguarded execution — on the planned tier for in-region inputs,
// and on the dynamic tier for inputs outside the region. The
// served report for the same inputs carries no modeled phase, and its
// peak memory is the arena's high water on the planned tier and the peak
// live bytes otherwise.
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
			tag := fmt.Sprintf("%s@%d", b.Name, size)
			s := NewSample(b, size, 0.5, 11)
			want, err := eng.Run(c.inner, s, SD888CPU)
			if err != nil {
				t.Fatal(err)
			}
			_, served, err := c.Infer(s.Inputs)
			if err != nil {
				t.Fatal(err)
			}
			res, gr := observedRun(t, c, s.Inputs)
			wantTier := TierPlanned
			if i >= 2 {
				wantTier = TierDynamic
			}
			if served.FallbackTier != wantTier || gr.Tier != wantTier {
				t.Fatalf("%s: served on tier %v, observed run on %v, want %v", tag, served.FallbackTier, gr.Tier, wantTier)
			}
			requireSameModeled(t, tag, eng.Model(c.inner, res.Trace, SD888CPU), want)

			wantPeak := res.Trace.PeakLiveBytes
			if wantTier == TierPlanned {
				wantPeak = gr.ArenaHighWater
			}
			if served.Phases != nil || served.LatencyMS <= 0 || served.PeakMemBytes != wantPeak {
				t.Errorf("%s: served report phases %v, latency %v ms, peak %d B; want no phases, a measured latency, peak %d B",
					tag, served.Phases, served.LatencyMS, served.PeakMemBytes, wantPeak)
			}
		}
	}
}

// TestReportBindViolationServedDynamic: a request whose shapes
// contradict the analysis is served on the dynamic rung, with no
// per-request re-analysis. Its one degradation is a bind step to dynamic,
// the served report carries no modeled phase and its peak memory is the
// run's peak live bytes, and the observed trace prices exactly as the
// engine's.
func TestReportBindViolationServedDynamic(t *testing.T) {
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
		Spec: func(size int64, _ float32) []InputSpec {
			return []InputSpec{{Name: "x", DType: tensor.Float32, Shape: []int64{size}, Fill: models.FillNormal}}
		},
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	// 8 elements against a shape analyzed as exactly 4: contradiction.
	s := Sample{Inputs: b.Inputs(tensor.NewRNG(1), 8, 0)}
	eng := frameworks.NewSoD2(frameworks.FullSoD2())
	want, err := eng.Run(c.inner, s, SD888CPU)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := c.Infer(s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if got.FallbackTier != TierDynamic || len(got.Degradations) != 1 ||
		got.Degradations[0].Kind != guard.KindBind || got.Degradations[0].To != TierDynamic {
		t.Fatalf("tier %v, degradations %v: want one bind step to the dynamic tier", got.FallbackTier, got.Degradations)
	}
	res, _ := observedRun(t, c, s.Inputs)
	if got.Phases != nil || got.LatencyMS <= 0 || got.PeakMemBytes != res.Trace.PeakLiveBytes {
		t.Errorf("phases %v, latency %v ms, peak %d B: want no phases, a measured latency, peak %d B",
			got.Phases, got.LatencyMS, got.PeakMemBytes, res.Trace.PeakLiveBytes)
	}
	requireSameModeled(t, "toy-fixed@8", eng.Model(c.inner, res.Trace, SD888CPU), want)
}

// TestUnobservedRunRecordsNoEvents: a guarded run no Hooks consumer
// observes records no per-operator event but the same scalar totals, and
// an observed one records every operator it ran — the counts pinned here
// are the ones every run recorded before the trace became opt-in.
func TestUnobservedRunRecordsNoEvents(t *testing.T) {
	ran := map[string]int{
		"SkipNet": 69, "DGNet": 65, "ConvNet-AIG": 78, "RaNet": 25, "BlockDrop": 42,
		"CodeBERT": 80, "Conformer": 69, "StableDiffusion": 52, "SegmentAnything": 88, "YOLO-V6": 38,
	}
	for _, b := range Models() {
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		inputs := NewSample(b, b.MinSize, 0.5, 7).Inputs
		plain, _, err := c.inner.GuardedRun(inputs, GuardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		obs, _ := observedRun(t, c, inputs)
		if n := len(plain.Trace.Events); n != 0 {
			t.Errorf("%s: unobserved run recorded %d events", b.Name, n)
		}
		if plain.Trace.PeakLiveBytes != obs.Trace.PeakLiveBytes ||
			plain.Trace.TotalAllocBytes != obs.Trace.TotalAllocBytes ||
			plain.Trace.AllocCount != obs.Trace.AllocCount {
			t.Errorf("%s: unobserved totals (peak %d, total %d, count %d) != observed (%d, %d, %d)", b.Name,
				plain.Trace.PeakLiveBytes, plain.Trace.TotalAllocBytes, plain.Trace.AllocCount,
				obs.Trace.PeakLiveBytes, obs.Trace.TotalAllocBytes, obs.Trace.AllocCount)
		}
		n := 0
		for _, ev := range obs.Trace.Events {
			if !ev.Skipped {
				n++
			}
		}
		if n != ran[b.Name] {
			t.Errorf("%s: observed run recorded %d executed operators, want %d", b.Name, n, ran[b.Name])
		}
	}
}

// regionIfModel is a model with a shape-decidable If: its predicate
// L > 1 holds for every L in the sampling range [2, 16], and the graph
// is served as built, with the If and both arms in it.
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
		Spec: func(size int64, _ float32) []InputSpec {
			return []InputSpec{{Name: "x", DType: tensor.Float32, Shape: []int64{1, size, 8}, Fill: models.FillNormal}}
		},
	}
}

// TestReportRegionIf: each arm of a shape-decidable If serves
// bit-exactly through the If kernel. An in-range request runs the
// then-arm on the planned tier; L = 1, outside the range, runs the
// else-arm on the dynamic tier with the fact degradation every
// out-of-range request gets.
func TestReportRegionIf(t *testing.T) {
	b := regionIfModel()
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Graph().Nodes; len(n) != 4 || n[3].OpType != "If" {
		t.Fatalf("served graph %v: want the If as built", n)
	}
	arms := map[string]int{}
	hooks := &exec.Hooks{PreKernel: func(n *Node, _ []*Tensor) error {
		arms[n.Name]++
		return nil
	}}
	serve := func(L int64, want func(v float32) float32, arm string, tier Tier) Report {
		t.Helper()
		clear(arms)
		x := b.Inputs(tensor.NewRNG(1), L, 0)
		outs, rep, err := c.InferGuarded(x, GuardOptions{Hooks: hooks})
		if err != nil {
			t.Fatalf("L=%d: %v", L, err)
		}
		// The arms' nodes live only in if1's branch bodies: the one that
		// launched is the one the If kernel dispatched.
		if rep.FallbackTier != tier || arms[arm] != 1 || len(arms) != 4 {
			t.Errorf("L=%d: tier %v, kernels %v: want %v with %s alone of the arms", L, rep.FallbackTier, arms, tier, arm)
		}
		for i, v := range x["x"].F {
			if got := outs["y"].F[i]; math.Float32bits(got) != math.Float32bits(want(v)) {
				t.Fatalf("L=%d: output %d = %v, want %v", L, i, got, want(v))
			}
		}
		return rep
	}
	relu := func(v float32) float32 { return max(v, 0) }
	neg := func(v float32) float32 { return -v }

	if in := serve(4, relu, "then.bop", TierPlanned); !in.RegionCacheHit || len(in.Degradations) != 0 {
		t.Errorf("in-range: region hit %v, degradations %+v: want the region proof's plan", in.RegionCacheHit, in.Degradations)
	}
	out := serve(1, neg, "else.bop", TierDynamic)
	if d := out.Degradations; len(d) != 1 || d[0].Kind != guard.KindFact || d[0].To != TierDynamic {
		t.Errorf("out-of-range degradations %+v: want one fact step to dynamic", d)
	}
}
