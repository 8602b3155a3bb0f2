// Package frameworks is SoD²'s runtime: it compiles a model once (RDP
// analysis, fusion, the SEP execution order, the region proof) and
// serves it through the guarded tier ladder (guarded.go), with the
// compiled-artifact store, weight quantization and the served report.
// For the evaluation it also executes a sample's trace (Execute) and
// prices it with the modeled SoD² engine (SoD2: the paper's latency and
// memory from the device cost model over that trace). The baseline
// frameworks the paper compares against are pricing policies over the
// same traces, and live with the experiment harness (internal/bench).
package frameworks

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/fold"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/memplan"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/staticverify"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Report is the outcome of one inference under one engine.
type Report struct {
	// LatencyMS and PeakMemBytes are modeled by an Engine, measured by
	// the serving facade.
	LatencyMS    float64
	PeakMemBytes int64
	// Phases breaks a modeled latency into named components (ms) —
	// "infer", "reinit-sl", "reinit-st", "reinit-alloc", "shapefn",
	// "malloc", "memplan".
	Phases map[string]float64
	// FallbackTier is the tier the inference actually completed on
	// (TierPlanned when no degradation occurred).
	FallbackTier guard.Tier
	// Degradations records every guarded-execution fallback taken while
	// producing this report, in the order they fired.
	Degradations []guard.Degradation
	// RegionCacheHit reports that the statically-proven shape-family plan
	// served this request: its input shapes fell inside the verified
	// region, so contract and plan re-verification were skipped entirely
	// (even for a shape never seen before).
	RegionCacheHit bool
}

// Compiled holds one model's compiled artifacts: what serving runs and
// what the evaluation prices.
//
// Concurrency contract: after Compile returns, every exported field is
// read-only and every method on Compiled is safe for concurrent use —
// the harness plans, the contract, the region proof and the kept arena
// buffers are all guarded internally; Execute keeps nothing. Callers
// that mutate a compiled artifact in place (tests corrupting
// ExecPlan.Order, harnesses swapping plans) must call Invalidate()
// afterwards and must not race the mutation with inferences.
type Compiled struct {
	Builder   *models.Builder
	Graph     *graph.Graph
	Infos     map[string]lattice.Info
	RDPResult *rdp.Result
	FusionRDP *fusion.Plan
	ExecPlan  *plan.Plan

	// harnessOnce guards harness, the plans only the evaluation harness
	// reads, built on first use (harnessplans.go).
	harnessOnce sync.Once
	harness     *harnessPlans

	// contractOnce guards the lazily built runtime contract.
	contractOnce sync.Once
	contract     *guard.Contract

	// verifyMu serializes static verification; verified memoizes its
	// report (verified.go). A proven report is the planned rung's plan
	// for every in-region request; regionHits counts requests it served.
	// verifyGen is bumped by Invalidate so a verification that was in
	// flight across an invalidation cannot resurrect its stale proof.
	verifyMu   sync.Mutex
	verified   atomic.Pointer[staticverify.Report]
	verifyGen  atomic.Uint64
	regionHits atomic.Uint64

	// arenas keeps the arena buffers of finished planned runs for the
	// next ones (arena.go).
	arenas arenaStack

	// Quant describes the weight-quantization pass applied to Graph
	// (nil = float32 weights). floatInits keeps the original f32
	// initializers: the accuracy-contract fallback tier runs the same
	// topology against them when a quantized run violates its budget.
	Quant      *QuantReport
	floatInits map[string]*tensor.Tensor

	// presetRegion is installed before the Compiled is published — the
	// cold compile derives it from its one probe of the declared input
	// shapes, the warm boot loads it from the artifact store — so the
	// entry check, the verifier and the harness's MVC plan all quantify
	// over one region. Read-only afterwards, like every compiled
	// artifact.
	presetRegion staticverify.Region

	// OrigGraph/OrigInfos are the graph as built and its RDP analysis,
	// before weight quantization swaps the initializers. Nothing in
	// compiling or serving reads them: the wall-clock benchmark's traced
	// run hashes OrigGraph into its artifact-store key and times stages
	// over both, and they go when that run stops reading them.
	OrigGraph *graph.Graph
	OrigInfos map[string]lattice.Info
}

// CompileCounters snapshot how models were brought up process-wide:
// full compiles run the planning searches; warm loads skip them. The
// warm-boot tests assert PlanSearches does not move across a load.
type CompileCounters struct {
	// FullCompiles counts cold Compile() runs; WarmLoads counts models
	// reconstructed from a stored artifact.
	FullCompiles, WarmLoads uint64
	// PlanSearches counts top-level SEP order searches (plan.Build on a
	// model's main graph). It does not move on the warm path — that is
	// the point of the store.
	PlanSearches uint64
	// VerifyRuns counts static-verifier analyses (cold compile-time
	// verification and warm verify-on-load both count: a loaded plan is
	// untrusted until re-proven).
	VerifyRuns uint64
}

var compileCounters struct {
	fullCompiles, warmLoads, planSearches, verifyRuns atomic.Uint64
}

// Counters snapshots the process-wide compile counters.
func Counters() CompileCounters {
	return CompileCounters{
		FullCompiles: compileCounters.fullCompiles.Load(),
		WarmLoads:    compileCounters.warmLoads.Load(),
		PlanSearches: compileCounters.planSearches.Load(),
		VerifyRuns:   compileCounters.verifyRuns.Load(),
	}
}

// OrderKind selects the execution order policy for Execute.
type OrderKind uint8

// Execution orders.
const (
	// OrderTopo is the model's declaration (topological) order — what a
	// static framework executes after its own offline planning.
	OrderTopo OrderKind = iota
	// OrderBFS is the parallelism-first order (no memory-aware planning).
	OrderBFS
	// OrderPlanned is SoD²'s memory-aware planned order (SEP).
	OrderPlanned
)

// Execute runs the graph for one sample under an executor policy —
// every branch or only the taken ones, in the given order — with the
// trace's events recorded: the evaluation's execution, which serving
// never calls. Every call executes; the experiment harness keeps the
// traces it reuses (internal/bench).
func (c *Compiled) Execute(s workload.Sample, allBranches bool, kind OrderKind) (*exec.Result, error) {
	var order []*graph.Node
	switch kind {
	case OrderPlanned:
		order = c.ExecPlan.Order
	case OrderBFS:
		order = c.harnessPlans().naiveOrder
	}
	// Attaching Hooks, even empty, records the Trace.Events the engines price.
	r, err := exec.Run(c.Graph, s.Inputs, exec.Options{Order: order, ExecuteAllBranches: allBranches, Hooks: &exec.Hooks{}})
	if err != nil {
		return nil, err
	}
	// A schedule that skips producers leaves graph outputs unproduced —
	// catch the broken plan here instead of returning silent nils.
	for _, o := range c.Graph.Outputs {
		if r.Outputs[o] == nil {
			return nil, fmt.Errorf("frameworks: %s: output %q not produced (incomplete schedule)", c.Graph.Name, o)
		}
	}
	return r, nil
}

// Invalidate drops the memoized static region proof; the next request
// re-verifies. Call it after mutating any compiled artifact in place
// (the bench harness also calls it between experiments). The cumulative
// region-hit counter survives invalidation.
func (c *Compiled) Invalidate() {
	// A mutated artifact invalidates the static proof; Verify() rebuilds
	// it on demand. The generation bump precedes the drop so an Analyze
	// that was already running cannot store its stale report afterwards.
	c.verifyGen.Add(1)
	c.verified.Store(nil)
}

// CacheStats reports the cumulative effectiveness of Compiled's runtime
// caches.
type CacheStats struct {
	// TraceHits/TraceMisses counted the per-model trace memo, which is
	// gone (the experiment harness keeps its own traces), and
	// PlanHits/PlanMisses the shape-keyed plan cache, also gone: all
	// four read 0 and stay declared only until the wall-clock
	// benchmark's next revision stops reading them.
	TraceHits, TraceMisses uint64
	PlanHits, PlanMisses   uint64
	// RegionHits counts requests served by the statically-proven
	// shape-family plan (no per-shape verification at all).
	RegionHits uint64
}

// Stats snapshots the cache counters.
func (c *Compiled) Stats() CacheStats {
	return CacheStats{RegionHits: c.regionHits.Load()}
}

// buildGraph constructs and statically pre-optimizes a model's graph —
// the part of compilation both the cold path and the artifact-store
// warm boot share (the warm boot needs the graph to hash it and to map
// persisted node names back to nodes).
func buildGraph(b *models.Builder) (*graph.Graph, error) {
	g := b.Build()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("frameworks: %s: %w", b.Name, err)
	}
	// General static optimization applied by every configuration
	// including the No-opt baseline (§5.3): compile-time constant folding.
	if _, err := fold.Fold(g); err != nil {
		return nil, fmt.Errorf("frameworks: %s: %w", b.Name, err)
	}
	return g, nil
}

// SchedConfig configures a compile. It selects no schedule: every
// compile serves the memory-minimal SEP order. The zero value is the
// default compile.
type SchedConfig struct {
	// Quant packs eligible weights into int8 storage (Quant.Format =
	// Int8; the zero value serves float32).
	Quant QuantConfig
}

// Compile analyzes and plans a model once (SoD²'s pre-deployment work;
// the baselines reuse only the pieces their real counterparts have)
// under the default configuration.
func Compile(b *models.Builder) (*Compiled, error) {
	return CompileSched(b, SchedConfig{})
}

// CompileSched is Compile with an explicit configuration (weight
// quantization).
func CompileSched(b *models.Builder, cfg SchedConfig) (*Compiled, error) {
	g, err := buildGraph(b)
	if err != nil {
		return nil, err
	}
	return compileGraph(b, g, cfg)
}

// compileGraph runs the full cold pipeline over an already-built graph.
func compileGraph(b *models.Builder, g *graph.Graph, cfg SchedConfig) (*Compiled, error) {
	compileCounters.fullCompiles.Add(1)
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		return nil, err
	}
	c := &Compiled{Builder: b, Graph: g, Infos: res.Infos, RDPResult: res,
		OrigGraph: g, OrigInfos: res.Infos}
	// One probe of the declared input shapes yields the region every
	// proof and the serve-time entry check quantify over.
	c.presetRegion = probeExtents(b, g, res.Infos).region()

	c.FusionRDP = fusion.Fuse(g, res.Infos, fusion.RDP)
	compileCounters.planSearches.Add(1)
	c.ExecPlan, err = plan.Build(g, res.Infos, plan.Options{Fusion: c.FusionRDP})
	if err != nil {
		return nil, err
	}
	c.compileSubgraphs()
	// Weight quantization runs last: it swaps initializer storage only —
	// shapes, topology, and node pointers are untouched, so every plan
	// derived above remains valid for the packed graph.
	if cfg.Quant.Format.IsQuantized() {
		c.applyQuantization(cfg.Quant)
	}
	return c, nil
}

// compileSubgraphs extends the RDP fusion plan and the execution
// plan's partition into If/Loop branch bodies: SoD² optimizes across
// control flow (§4.3), so the compute inside a taken branch is fused
// like top-level operators, and each body is a planning region of its
// own.
func (c *Compiled) compileSubgraphs() {
	forEachBody(c.Graph, c.Infos, func(body *graph.Graph, res *rdp.Result) {
		mergeFusion(c.FusionRDP, fusion.Fuse(body, res.Infos, fusion.RDP))
		if bodyPlan, err := plan.Build(body, res.Infos, plan.Options{}); err == nil {
			base := len(c.ExecPlan.Subgraphs)
			for _, sg := range bodyPlan.Subgraphs {
				sg.ID += base
				c.ExecPlan.Subgraphs = append(c.ExecPlan.Subgraphs, sg)
			}
		}
	})
}

// forEachBody calls fn, in graph order, with every If/Loop body of g and
// its RDP analysis, the body's inputs bound to the parent's inferred
// shapes. A body whose analysis fails is skipped: it is conservatively
// left unoptimized. Body value names are globally unique by
// construction.
func forEachBody(g *graph.Graph, infos map[string]lattice.Info, fn func(body *graph.Graph, res *rdp.Result)) {
	for _, n := range g.Nodes {
		for _, attrName := range []string{"then_branch", "else_branch", "body"} {
			body := n.AttrGraph(attrName)
			if body == nil {
				continue
			}
			overrides := map[string]lattice.Shape{}
			for i, in := range body.Inputs {
				parentIdx := i + 1
				if n.OpType == "Loop" {
					parentIdx = i
				}
				if parentIdx < len(n.Inputs) && n.Inputs[parentIdx] != "" {
					overrides[in.Name] = infos[n.Inputs[parentIdx]].Shape
				}
			}
			res, err := rdp.Analyze(body, overrides, rdp.Options{})
			if err != nil {
				continue
			}
			fn(body, res)
		}
	}
}

// mergeFusion folds a body fusion plan into the parent's with offset
// group IDs.
func mergeFusion(dst, src *fusion.Plan) {
	offset := len(dst.Groups)
	for _, grp := range src.Groups {
		grp.ID += offset
		dst.Groups = append(dst.Groups, grp)
	}
	for node, gid := range src.NodeGroup {
		dst.NodeGroup[node] = gid + offset
	}
	for name := range src.Internal {
		dst.Internal[name] = true
	}
}

// TraceProgram converts an executed trace into a liveness program
// suitable for memory planning. internal values (fused away) are sized
// 0; skipped events are ignored.
func TraceProgram(g *graph.Graph, tr exec.Trace, internal map[string]bool) *memplan.Program {
	return TraceProgramDeferred(g, tr, internal, 0)
}

// TraceProgramDeferred is TraceProgram with every buffer's death deferred
// by deferFree steps: without a static execution plan the runtime has no
// lifetime analysis and releases buffers at coarse sub-graph granularity
// rather than at last use (the memory cost SEP removes; the §4.4.1
// ablation).
func TraceProgramDeferred(g *graph.Graph, tr exec.Trace, internal map[string]bool, deferFree int) *memplan.Program {
	keep := map[string]bool{}
	for _, o := range g.Outputs {
		keep[o] = true
	}
	var steps []memplan.StepSpec
	for _, ev := range tr.Events {
		if ev.Skipped {
			continue
		}
		var st memplan.StepSpec
		for i, name := range ev.OutNames {
			if name == "" {
				continue
			}
			size := ev.OutBytes[i]
			if internal != nil && internal[name] {
				size = 0
			}
			st.Produces = append(st.Produces, memplan.NamedSize{Name: name, Size: size})
		}
		for _, name := range ev.InNames {
			if name != "" && !g.IsGraphInput(name) {
				if _, isConst := g.Initializers[name]; !isConst {
					st.Consumes = append(st.Consumes, name)
				}
			}
		}
		steps = append(steps, st)
	}
	prog := memplan.FromSteps(steps, keep)
	if deferFree > 0 {
		for i := range prog.Bufs {
			d := prog.Bufs[i].Death + deferFree
			if d > prog.Steps-1 {
				d = prog.Steps - 1
			}
			prog.Bufs[i].Death = d
		}
	}
	return prog
}
