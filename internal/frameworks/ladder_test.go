package frameworks

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/models"
	"repro/internal/staticverify"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// Regression tests for the faults the single rung runner removes by
// construction: every rung gets the same epilogue and the same
// Ctx/Hooks, because there is only one place that runs one.

// matmulModel is x[1,L,32] × W[32,32]: one weight exactly at the
// quantizer's quantMinElems floor, so an int8 compile packs it.
func matmulModel() *models.Builder {
	return &models.Builder{
		Name: "toy-matmul", MinSize: 2, MaxSize: 8, SizeStep: 1,
		Build: func() *graph.Graph {
			g := graph.New("toy-matmul")
			g.AddInput("x", tensor.Float32, lattice.Ranked(
				lattice.FromInt(1), lattice.FromExpr(symbolic.NewSym("L")), lattice.FromInt(32)))
			g.AddInitializer("W", tensor.RandomFloats(tensor.NewRNG(3), 1, 32, 32))
			g.Op("MatMul", "mm", []string{"x", "W"}, []string{"y"}, nil)
			g.AddOutput("y")
			return g
		},
		Spec: func(size int64, _ float32) []models.InputSpec {
			return []models.InputSpec{{Name: "x", DType: tensor.Float32, Shape: []int64{1, size, 32}, Fill: models.FillNormal}}
		},
	}
}

// countingHooks counts kernel launches.
func countingHooks(n *atomic.Int64) *exec.Hooks {
	return &exec.Hooks{PreKernel: func(*graph.Node, []*tensor.Tensor) error {
		n.Add(1)
		return nil
	}}
}

// A violated drift contract serves the float32 reference's outputs, so
// those must pass the same non-finite scan as any other tier's. Both
// weight sets are corrupted here: zeroed int8 scales make the quantized
// outputs drift, and a NaN in the float32 weight poisons one column of
// the reference, which must not be served with a nil error.
func TestDriftReferenceIsFiniteChecked(t *testing.T) {
	b := matmulModel()
	c, err := CompileSched(b, SchedConfig{Quant: QuantConfig{Format: tensor.Int8}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.quantized() {
		t.Fatalf("nothing packed: %+v", c.Quant)
	}
	q := c.Graph.Initializers["W"].Q
	for i := range q.Scales {
		q.Scales[i] = 0
	}
	c.floatInits["W"].F[0] = float32(math.NaN())

	res, gr, err := c.GuardedRun(b.Inputs(tensor.NewRNG(7), 4, 0), GuardOptions{VerifyDrift: true})
	var ce *guard.ContractError
	if !errors.As(err, &ce) || ce.Kind != guard.KindNumeric {
		t.Fatalf("want the reference's non-finite verdict, got err=%v on tier %v (outputs served: %v)", err, gr.Tier, res != nil)
	}
}

// The float32 rung runs under the request's hooks, whichever way it is
// reached: fault injection and kernel tracing must see it.
func TestFloat32RungSeesHooks(t *testing.T) {
	b := matmulModel()
	in := b.Inputs(tensor.NewRNG(7), 4, 0)
	compile := func() *Compiled {
		c, err := CompileSched(b, SchedConfig{Quant: QuantConfig{Format: tensor.Int8}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// As the drift contract's reference run: one MatMul per execution.
	var launches atomic.Int64
	c := compile()
	if _, gr, err := c.GuardedRun(in, GuardOptions{VerifyDrift: true, Hooks: countingHooks(&launches)}); err != nil || gr.Tier != guard.TierPlanned {
		t.Fatalf("clean drift-verified run: tier %v, err %v", gr.Tier, err)
	}
	if got := launches.Load(); got != 2 {
		t.Errorf("drift-verified request launched %d kernels under the hooks, want 2 (quantized + float32 reference)", got)
	}

	// As the descent from non-finite quantized outputs.
	launches.Store(0)
	c = compile()
	c.Graph.Initializers["W"].Q.Scales[0] = float32(math.NaN())
	if _, gr, err := c.GuardedRun(in, GuardOptions{Hooks: countingHooks(&launches)}); err != nil || gr.Tier != guard.TierFloat32 {
		t.Fatalf("NaN-scale run: tier %v, err %v", gr.Tier, err)
	}
	if got := launches.Load(); got != 2 {
		t.Errorf("float32 fallback launched %d kernels under the hooks, want 2 (quantized + float32)", got)
	}
}

// A schedule that skips a producer makes exec.Run hand back a nil output
// with a nil error. Every rung must refuse that. The order is truncated without Invalidate, so the
// memoized region proof still vouches for it.
func TestEveryRungChecksOutputsProduced(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, rep, err := CompileVerified(b)
	if err != nil || !rep.Mem.Proven {
		t.Fatalf("compile: err %v, proven %v", err, rep != nil && rep.Mem.Proven)
	}
	in := b.Inputs(tensor.NewRNG(7), b.MinSize, 0.5)
	full := c.ExecPlan.Order
	c.ExecPlan.Order = full[:len(full)-1]
	defer func() { c.ExecPlan.Order = full }()

	for _, opts := range []GuardOptions{{}, {ForceDynamic: true}} {
		res, gr, err := c.GuardedRun(in, opts)
		var ce *guard.ContractError
		if !errors.As(err, &ce) || ce.Kind != guard.KindExecPlan {
			t.Errorf("tier %v: want an exec-plan violation for the unproduced output, got err=%v (outputs served: %v)",
				gr.Tier, err, res != nil)
		}
	}
}

// ForceDynamic never consults a plan, so it takes no arena buffer: the
// run touches no arena and the Compiled's buffer stack stays empty.
func TestForceDynamicBuildsNoPlan(t *testing.T) {
	c := compileModel(t, "SkipNet")
	in := c.Builder.Inputs(tensor.NewRNG(7), c.Builder.MinSize, 0.5)
	_, gr, err := c.GuardedRun(in, GuardOptions{ForceDynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Tier != guard.TierDynamic || len(gr.Degradations) != 1 || gr.Degradations[0].Kind != guard.KindQuarantine {
		t.Errorf("tier %v, degradations %+v: want one quarantine step to dynamic", gr.Tier, gr.Degradations)
	}
	if gr.ArenaHighWater != 0 {
		t.Errorf("arena high water %d: ForceDynamic placed tensors in an arena", gr.ArenaHighWater)
	}
	// The run kept its kernel scratch in a buffer of the stack, but laid
	// no arena over it.
	for _, ab := range c.arenas.free {
		if cap(ab.buf) != 0 || len(ab.offs) != 0 {
			t.Errorf("ForceDynamic fitted an arena: %d floats, %d slots", cap(ab.buf), len(ab.offs))
		}
	}
}

// convPoolModel is k shape-keeping Conv→MaxPool pairs (3×3, stride 1,
// padding 1) over x[1,4,S,S]: every node takes kernel scratch.
func convPoolModel(k int) *models.Builder {
	name := fmt.Sprintf("toy-convpool-%d", k)
	return &models.Builder{
		Name: name, MinSize: 8, MaxSize: 16, SizeStep: 1,
		Build: func() *graph.Graph {
			g := graph.New(name)
			side := lattice.FromExpr(symbolic.NewSym("S"))
			g.AddInput("x", tensor.Float32, lattice.Ranked(lattice.FromInt(1), lattice.FromInt(4), side, side))
			x := "x"
			for i := range k {
				w, conv, pool := fmt.Sprintf("w%d", i), fmt.Sprintf("conv%d", i), fmt.Sprintf("pool%d", i)
				g.AddInitializer(w, tensor.RandomFloats(tensor.NewRNG(uint64(i+1)), 1, 4, 4, 3, 3))
				g.Op("Conv", conv, []string{x, w}, []string{conv}, map[string]graph.AttrValue{
					"pads": graph.IntsAttr(1, 1, 1, 1)})
				g.Op("MaxPool", pool, []string{conv}, []string{pool}, map[string]graph.AttrValue{
					"kernel_shape": graph.IntsAttr(3, 3), "pads": graph.IntsAttr(1, 1, 1, 1)})
				x = pool
			}
			g.AddOutput(x)
			return g
		},
		Spec: func(size int64, _ float32) []models.InputSpec {
			return []models.InputSpec{{Name: "x", DType: tensor.Float32, Shape: []int64{1, 4, size, size}, Fill: models.FillNormal}}
		},
	}
}

// convIfModel is k shape-keeping 3×3 Convs over x[1,4,S,S] and an If
// on a constant true condition whose branches both return their input
// x. With inBody the Convs run inside the taken branch, else before the
// If.
func convIfModel(k int, inBody bool) *models.Builder {
	name := fmt.Sprintf("toy-convif-%d-%v", k, inBody)
	convs := func(g *graph.Graph, x string) string {
		for i := range k {
			w, conv := fmt.Sprintf("w%d", i), fmt.Sprintf("conv%d", i)
			g.AddInitializer(w, tensor.RandomFloats(tensor.NewRNG(uint64(i+1)), 1, 4, 4, 3, 3))
			g.Op("Conv", conv, []string{x, w}, []string{conv}, map[string]graph.AttrValue{
				"pads": graph.IntsAttr(1, 1, 1, 1)})
			x = conv
		}
		return x
	}
	branch := func(bname string, withConvs bool) *graph.Graph {
		g := graph.New(bname)
		g.AddInput("bx", tensor.Float32, lattice.UndefShape())
		out := "bx"
		if withConvs {
			out = convs(g, out)
		}
		g.Op("Identity", "bout", []string{out}, []string{"by"}, nil)
		g.AddOutput("by")
		return g
	}
	return &models.Builder{
		Name: name, MinSize: 8, MaxSize: 16, SizeStep: 1,
		Build: func() *graph.Graph {
			g := graph.New(name)
			side := lattice.FromExpr(symbolic.NewSym("S"))
			g.AddInput("x", tensor.Float32, lattice.Ranked(lattice.FromInt(1), lattice.FromInt(4), side, side))
			g.AddInitializer("cond", tensor.ScalarBool(true))
			x := "x"
			if !inBody {
				x = convs(g, x)
			}
			g.Op("If", "if", []string{"cond", x}, []string{"y"}, map[string]graph.AttrValue{
				"then_branch": graph.GraphAttr(branch("then", inBody)),
				"else_branch": graph.GraphAttr(branch("else", false)),
			})
			g.AddOutput("y")
			return g
		},
		Spec: func(size int64, _ float32) []models.InputSpec {
			return []models.InputSpec{{Name: "x", DType: tensor.Float32, Shape: []int64{1, 4, size, size}, Fill: models.FillNormal}}
		},
	}
}

// TestForceDynamicKeepsScratch: the dynamic rung keeps its kernels'
// scratch across runs, as the planned rung does, so a dynamic run's
// allocations grow with its Conv and MaxPool nodes only by their
// outputs' headers and payloads — exactly as fast as those of an
// exec.Run handed one kept scratch buffer, whatever the node count. A
// Conv inside a taken If branch keeps it too: it adds exactly the
// allocations of a Conv before the If.
func TestForceDynamicKeepsScratch(t *testing.T) {
	dynamicRun := func(c *Compiled, in map[string]*tensor.Tensor) {
		if _, _, err := c.GuardedRun(in, GuardOptions{ForceDynamic: true}); err != nil {
			t.Fatal(err)
		}
	}
	// growth is the allocations one Conv→MaxPool pair (or one Conv of
	// convIfModel) adds to a run.
	growth := func(model func(k int) *models.Builder, run func(c *Compiled, in map[string]*tensor.Tensor)) float64 {
		const few, many = 1, 5
		var n [2]float64
		for i, k := range []int{few, many} {
			b := model(k)
			c, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			in := b.Inputs(tensor.NewRNG(5), 12, 0.5)
			n[i] = testing.AllocsPerRun(20, func() { run(c, in) })
		}
		return (n[1] - n[0]) / (many - few)
	}
	dynamic := growth(convPoolModel, dynamicRun)
	var kept []float32
	reference := growth(convPoolModel, func(c *Compiled, in map[string]*tensor.Tensor) {
		if _, err := exec.Run(c.Graph, in, exec.Options{Order: c.ExecPlan.Order, Arena: &exec.Arena{Scratch: &kept}}); err != nil {
			t.Fatal(err)
		}
	})
	if dynamic > reference {
		t.Errorf("a Conv→MaxPool pair adds %.2f allocations to a dynamic run, %.2f to a run with kept scratch: scratch is allocated per call",
			dynamic, reference)
	}

	body := growth(func(k int) *models.Builder { return convIfModel(k, true) }, dynamicRun)
	top := growth(func(k int) *models.Builder { return convIfModel(k, false) }, dynamicRun)
	if body != top {
		t.Errorf("a Conv adds %.2f allocations to a dynamic run inside a taken If branch, %.2f before the If: a body's kernels do not keep the run's scratch",
			body, top)
	}
}

// plantUnprovenMemory swaps c's memoized proof for one whose memory
// verdict is unproven — what the verifier reports for a model it cannot
// prove — so a contract-satisfying request has no plan to enter on.
func plantUnprovenMemory(c *Compiled) (undo func()) {
	held := c.Verify()
	planted := *held
	planted.Mem = staticverify.MemVerdict{Reason: "planted: no proof"}
	c.verified.Store(&planted)
	return func() { c.verified.Store(held) }
}

// refuteCompiledOrder reverses c's compiled order, so the first node it
// schedules consumes values not yet produced, and drops the proof that
// vouched for the old one.
func refuteCompiledOrder(c *Compiled) (undo func()) {
	good := c.ExecPlan.Order
	bad := slices.Clone(good)
	slices.Reverse(bad)
	c.ExecPlan.Order = bad
	c.Invalidate()
	return func() {
		c.ExecPlan.Order = good
		c.Invalidate()
	}
}

// A request whose compiled order the verifier refutes runs every kernel
// in the graph's declaration order, the schedule exec.Run takes when
// given none.
func TestRefutedOrderRunsInDeclarationOrder(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	defer refuteCompiledOrder(c)()
	want, err := c.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	var ran []*graph.Node
	hooks := &exec.Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
		ran = append(ran, n)
		return nil
	}}
	in := c.Builder.Inputs(tensor.NewRNG(7), c.Builder.MinSize, 0.5)
	_, gr, err := c.GuardedRun(in, GuardOptions{Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Tier != guard.TierDynamic || len(gr.Degradations) != 1 || gr.Degradations[0].Kind != guard.KindExecPlan {
		t.Fatalf("tier %v, degradations %+v: want one execplan step to dynamic", gr.Tier, gr.Degradations)
	}
	if !slices.Equal(ran, want) {
		t.Errorf("ran %d kernels off the declaration order of %d nodes", len(ran), len(want))
	}
}

// ---- Tier equivalence --------------------------------------------------

// A ladderRequest is one of the two inputs the ladder is walked with.
type ladderRequest int

const (
	// inRegion is the model's smallest in-contract request.
	inRegion ladderRequest = iota
	// batchOfTwo stacks the first graph input on itself: batch 2 against
	// an analyzed batch of 1 is a binding the RDP fixed point
	// contradicts, and one every model but the two that reshape to a
	// literal batch of 1 (CodeBERT, Conformer) still executes.
	batchOfTwo
)

func (r ladderRequest) inputs(b *models.Builder) map[string]*tensor.Tensor {
	if r == batchOfTwo {
		if b.Name == "CodeBERT" || b.Name == "Conformer" {
			return nil
		}
		in := b.Inputs(tensor.NewRNG(7), b.MinSize, 0.5)
		name := b.Build().Inputs[0].Name
		one := in[name]
		two := tensor.New(one.DType, append([]int64{2}, one.Shape[1:]...)...)
		copy(two.F, one.F)
		copy(two.F[len(one.F):], one.F)
		in[name] = two
		return in
	}
	return b.Inputs(tensor.NewRNG(7), b.MinSize, 0.5)
}

// ladderCase forces a request onto one rung of the ladder.
type ladderCase struct {
	name string
	// tier and kind are the rung the request must complete on and the
	// violation kind of the degradation that put it there ("" = none).
	tier guard.Tier
	kind guard.ViolationKind
	// int8Only marks rungs only a quantized compile has; exact marks
	// rungs that execute float32 weights even on one, so their outputs
	// are the oracle's bit for bit.
	int8Only, exact bool
	request         ladderRequest
	opts            GuardOptions
	// arrange edits the compiled artifact so the request enters this
	// rung, and returns the undo (nil when the edit is permanent).
	arrange func(c *Compiled) (undo func())
	// check holds the report to whatever else the rung promises.
	check func(t *testing.T, gr *GuardReport)
}

var ladderCases = []ladderCase{
	{
		name: "planned", tier: guard.TierPlanned, request: inRegion,
		check: func(t *testing.T, gr *GuardReport) {
			if !gr.RegionCacheHit || gr.ArenaHighWater <= 0 {
				t.Errorf("region hit %v, arena high water %d: want the region proof's arena", gr.RegionCacheHit, gr.ArenaHighWater)
			}
		},
	},
	{
		name: "dynamic", tier: guard.TierDynamic, kind: guard.KindQuarantine,
		request: inRegion, opts: GuardOptions{ForceDynamic: true},
	},
	{
		// A binding the RDP fixed point contradicts runs dynamic in the
		// compiled order: nothing is re-analyzed per request.
		name: "dynamic from a bind violation", tier: guard.TierDynamic, kind: guard.KindBind,
		request: batchOfTwo,
	},
	{
		// A schedule that is not one. Invalidate drops the proof that
		// vouched for the old order, the re-run verifier refutes it, and
		// the request runs dynamic in declaration order — bit-identical,
		// since the order never changes a node's arithmetic.
		name: "dynamic in declaration order from a refuted order", tier: guard.TierDynamic, kind: guard.KindExecPlan,
		request: inRegion, arrange: refuteCompiledOrder,
	},
	{
		// A request inside the contract that no proof covers is served
		// unplanned: the region proof is the planned rung's only plan.
		name: "dynamic from an unproven plan", tier: guard.TierDynamic, kind: guard.KindMemPlan,
		request: inRegion, arrange: plantUnprovenMemory,
		check: func(t *testing.T, gr *GuardReport) {
			if gr.RegionCacheHit || gr.ArenaHighWater != 0 {
				t.Errorf("region hit %v, arena high water %d: want no plan", gr.RegionCacheHit, gr.ArenaHighWater)
			}
		},
	},
	{
		// Last: the packed weights stay corrupted. Every scale becomes
		// 1e3 — finite outputs far outside the budget on all ten models
		// (zeroed scales stay inside SegmentAnything's).
		name: "float32", tier: guard.TierFloat32, kind: guard.KindQuant, int8Only: true, exact: true,
		request: inRegion, opts: GuardOptions{VerifyDrift: true},
		arrange: func(c *Compiled) func() {
			faultinject.CorruptAllQuantScales(c.Graph, 1e3)
			return nil
		},
	},
}

// TestTierEquivalence walks the ladder of the serving compile, epilogues
// fused: every rung forced in turn, for
// all ten models, float32 and int8, at thread budgets 1 and 4, each held
// to the exec.Run oracle on the uncompiled graph — bit-identical where
// float32 weights ran, within the compile's drift budget where int8 ones
// did. Whatever tier serves a
// request, it is the same function of the inputs.
func TestTierEquivalence(t *testing.T) {
	for _, b := range models.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			// One oracle run per request, shared by both compiles.
			var requests [batchOfTwo + 1]map[string]*tensor.Tensor
			var oracles [batchOfTwo + 1]map[string]*tensor.Tensor
			for r := range requests {
				if requests[r] = ladderRequest(r).inputs(b); requests[r] == nil {
					continue
				}
				res, err := exec.Run(b.Build(), requests[r], exec.Options{})
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				oracles[r] = res.Outputs
			}
			for _, dtype := range []tensor.DType{tensor.Float32, tensor.Int8} {
				t.Run(dtype.String(), func(t *testing.T) {
					c, err := CompileServing(b, SchedConfig{Quant: QuantConfig{Format: dtype}})
					if err != nil {
						t.Fatal(err)
					}
					if dtype == tensor.Int8 && !c.quantized() {
						t.Fatalf("int8 compile packed nothing: %+v", c.Quant)
					}
					for _, lc := range ladderCases {
						if lc.int8Only && dtype != tensor.Int8 {
							continue
						}
						t.Run(lc.name, func(t *testing.T) {
							in, oracle := requests[lc.request], oracles[lc.request]
							if in == nil {
								t.Skip("the model executes no such request")
							}
							if lc.arrange != nil {
								if undo := lc.arrange(c); undo != nil {
									defer undo()
								}
							}
							// Every rung at two thread budgets: striped kernels
							// are bit-identical to sequential ones.
							for _, threads := range []int{1, 4} {
								t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
									opts := lc.opts
									opts.Threads = threads
									// Every rung runs over stale kept storage.
									poisonKeptArenas(c)
									res, gr, err := c.GuardedRun(in, opts)
									if err != nil {
										t.Fatalf("guarded run: %v (%+v)", err, gr.Degradations)
									}
									if gr.Tier != lc.tier {
										t.Fatalf("served on %v, want %v (%+v)", gr.Tier, lc.tier, gr.Degradations)
									}
									if lc.kind == "" && len(gr.Degradations) != 0 {
										t.Errorf("unexpected degradations %+v", gr.Degradations)
									}
									if lc.kind != "" && (len(gr.Degradations) != 1 ||
										gr.Degradations[0].Kind != lc.kind || gr.Degradations[0].To != lc.tier) {
										t.Errorf("degradations %+v, want one %v step to %v", gr.Degradations, lc.kind, lc.tier)
									}
									if lc.check != nil {
										lc.check(t, gr)
									}
									if dtype == tensor.Float32 || lc.exact {
										requireBitIdentical(t, b.Name, res.Outputs, oracle)
									} else if err := guard.CheckDrift(oracle, res.Outputs, c.Quant.Budget); err != nil {
										t.Errorf("int8 outputs outside the drift budget: %v", err)
									}
								})
							}
						})
					}
				})
			}
		})
	}
}
