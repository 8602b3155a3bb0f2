package frameworks

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/memplan"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/staticverify"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// GuardOptions configure one guarded inference.
type GuardOptions struct {
	// Ctx, when non-nil, bounds the inference: cancellation is honored
	// between nodes, including inside If/Loop bodies.
	Ctx context.Context
	// ArenaBudget caps the arena footprint in bytes: a proven layout whose
	// worst-case arena, which bounds every fitted one, is over budget
	// degrades to the dynamic allocator instead of being executed.
	ArenaBudget int64
	// MaxLoopIters caps Loop trip counts (exec.DefaultMaxLoopIters if 0).
	MaxLoopIters int64
	// Hooks are threaded into the executor on every rung a request runs
	// (fault injection, tracing).
	Hooks *exec.Hooks
	// Strict turns degradations into errors: any contract violation
	// fails the inference instead of falling back.
	Strict bool
	// ForceDynamic starts the run on the dynamic fallback tier: the
	// region proof is not consulted and no memory plan is built.
	// This is the circuit breaker's quarantine/probation serving mode —
	// the plan is distrusted until re-verification passes, but requests
	// still complete (contract checking and kernel containment stay on).
	// The forced fallback is recorded as a KindQuarantine degradation,
	// never escalated to an error by Strict (the caller asked for it).
	ForceDynamic bool
	// VerifyDrift, on a quantized compile, re-runs the request on the
	// float32 rung and checks the quantized outputs against the model's
	// accuracy-drift budget (doubles the request's compute; the
	// reference outputs serve the request if the contract is violated).
	VerifyDrift bool
	// Parallel requests wavefront-parallel execution on the planned
	// tier: kernels of each statically planned wave run concurrently on
	// a worker pool, against the wave-widened (concurrency-proven)
	// arena plan. Requests that cannot run parallel soundly — no wave
	// partition, widened plan unproven or over budget, degraded tier —
	// silently execute sequentially; check GuardReport.Wavefronts.
	Parallel bool
	// Workers sizes the worker pool when Parallel is set
	// (runtime.GOMAXPROCS(0) if <= 0).
	Workers int
}

// GuardReport describes how a guarded inference actually ran.
type GuardReport struct {
	// Tier the run completed on.
	Tier guard.Tier
	// Degradations taken, in order.
	Degradations []guard.Degradation
	// ArenaHighWater is the peak arena byte touched (planned tier only).
	ArenaHighWater int64
	// RegionCacheHit reports that the statically-proven shape-family plan
	// served this request: the input shapes bound inside the verified
	// region, so the region-wide layout, fitted to the request, applied
	// with no per-shape contract checks — including for shapes never seen
	// before. It is the only way a request runs planned.
	RegionCacheHit bool
	// Wavefronts is the number of waves the run executed under the
	// wavefront-parallel interpreter (0 = sequential), and
	// ParallelWorkers the pool size it ran with.
	Wavefronts      int
	ParallelWorkers int
}

// degrade records one step down the ladder. Below the planned rung
// nothing runs parallel: without the widened arena plan there is no
// concurrency soundness proof.
func (gr *GuardReport) degrade(reason string, kind guard.ViolationKind, to guard.Tier) {
	gr.Degradations = append(gr.Degradations, guard.Degradation{
		Reason: reason, Kind: kind, From: gr.Tier, To: to})
	gr.Tier = to
	gr.Wavefronts, gr.ParallelWorkers = 0, 0
}

// Contract returns the model's runtime contract: declared symbolic input
// shapes, the RDP fixed point, and analyzed input facts (extent ranges
// and divisibility) derived from the model's sampling spec — the facts
// the compile probed, or the warm boot loaded from the store. Built once
// and cached on the Compiled (safe for concurrent use).
func (c *Compiled) Contract() *guard.Contract {
	c.contractOnce.Do(func() {
		ct := guard.NewContract(c.Graph, c.Infos)
		for _, f := range c.presetFacts {
			ct.AddFact(f)
		}
		c.contract = ct
	})
	return c.contract
}

// rung is one step of the tier ladder: which graph executes, in which
// order, and into which memory plan. Every tier a request can be served
// on is a rung value, and all of them execute through runRung.
type rung struct {
	tier  guard.Tier
	graph *graph.Graph
	// order is the schedule (nil = the graph's declaration order).
	order []*graph.Node
	// layout places intermediates in one arena (nil = dynamic
	// allocation); runRung fits it to the sizes env, the request's
	// binding, gives each buffer.
	layout *memplan.Layout
	env    symbolic.Env
	// workers > 0 runs the compiled wave partition on that many workers;
	// layout is then the wave-widened (concurrency-proven) one.
	workers int
}

// GuardedRun executes one set of inputs under the full runtime contract,
// as an explicit ladder of rungs:
//
//	planned   compiled graph, planned order, the region proof's layout
//	          fitted to this request
//	dynamic   compiled graph, planned order, per-tensor allocation
//	replan    compiled graph, order rebuilt by re-analysis of these shapes
//	float32   compiled topology with the float32 weights restored
//
// The inputs are bound against the RDP symbolic shapes exactly once, and
// that binding's verdicts pick the entry rung (entryRung): inside the
// statically proven region the request enters on the planned rung with
// the region-wide layout and no per-shape checking at all; outside it the
// analyzed facts and shape ranges are checked, and a request that passes
// them still has no plan: it enters on the dynamic rung (or the replan
// rung, when the verifier refuted the compiled order). A run-time fault
// then descends (descend): an arena fault from planned to dynamic,
// non-finite outputs of quantized weights to float32. Every step is
// recorded in the GuardReport; Strict turns each of them into the
// request's error instead.
//
// Kernel panics surface as *guard.OpError; a nil error means the outputs
// are complete (possibly via a degraded tier — check the GuardReport).
//
// GuardedRun is safe for concurrent use on a shared Compiled: nothing is
// keyed by concrete shape, the region proof is memoized by Verify, and
// an arena buffer is one run's alone while it runs (taken from the
// Compiled's kept buffers and returned once the outputs are detached).
func (c *Compiled) GuardedRun(inputs map[string]*tensor.Tensor, opts GuardOptions) (*exec.Result, *GuardReport, error) {
	gr := &GuardReport{Tier: guard.TierPlanned}
	r, err := c.entryRung(inputs, opts, gr)
	if err != nil {
		return nil, gr, err
	}
	res, err := c.runRung(r, inputs, opts, gr)
	for err != nil {
		next, kind, ok := c.descend(r, err, opts)
		if !ok {
			return nil, gr, err
		}
		gr.degrade(err.Error(), kind, next.tier)
		r = next
		res, err = c.runRung(r, inputs, opts, gr)
	}
	// Accuracy-drift contract: run the float32 rung as the reference and
	// bound the quantized outputs' element-wise error. The reference run
	// doubles the request's compute, so callers opt in; its outputs
	// double as the float32-tier result when the
	// contract is violated — a typed degradation, never a silent wrong
	// answer. A reference that faults leaves the quantized outputs
	// unverified, so its fault is the request's.
	if opts.VerifyDrift && c.quantized() && r.graph == c.Graph && c.Quant.Budget.Enabled() {
		f32 := c.float32Rung(r)
		ref, err := c.runRung(f32, inputs, opts, gr)
		if err != nil {
			return nil, gr, err
		}
		if derr := guard.CheckDrift(ref.Outputs, res.Outputs, c.Quant.Budget); derr != nil {
			if opts.Strict {
				return nil, gr, derr
			}
			gr.degrade(derr.Error(), guard.KindQuant, f32.tier)
			return ref, gr, nil
		}
	}
	return res, gr, nil
}

// entryRung binds the inputs once and reads every entry verdict off that
// one binding, recording the degradations that lower the entry tier. A
// non-nil error means no rung may serve the request: inputs no tier can
// run, or a violation under Strict.
func (c *Compiled) entryRung(inputs map[string]*tensor.Tensor, opts GuardOptions, gr *GuardReport) (rung, error) {
	ct := c.Contract()
	env, cerr := ct.BindInputs(inputs)
	if cerr != nil && contractKind(cerr) == guard.KindInput {
		// Missing inputs / wrong dtypes cannot run on any tier.
		return rung{}, cerr
	}
	// violated lowers the entry tier for one verdict, or refuses it under
	// Strict. A binding that contradicts the analysis, or a schedule that
	// is not one, means the compiled order cannot be trusted: re-analyze
	// from scratch. Anything else — out-of-range or misaligned extents, no
	// proven or an over-budget memory plan — only rules out planned
	// offsets: dynamic allocation is safe.
	violated := func(verr error) error {
		if opts.Strict {
			return verr
		}
		kind, to := contractKind(verr), guard.TierDynamic
		if kind == guard.KindBind || kind == guard.KindExecPlan {
			to = guard.TierReplan
		}
		gr.degrade(verr.Error(), kind, to)
		return nil
	}

	// One plan source for the planned rung: the region proof. A request
	// binding inside the proven region is served with the region-wide
	// layout, fitted to its own sizes — no fact/shape checks, including
	// for shapes never seen before. rep.Wave.Layout is non-nil exactly
	// when the wavefront proof passed.
	r := rung{graph: c.Graph, order: c.ExecPlan.Order, env: env}
	var rep *staticverify.Report
	if cerr == nil && !opts.ForceDynamic {
		if rep = c.Verify(); rep.Mem.Proven && rep.Region.ContainsEnv(env) {
			r.layout = rep.Mem.Layout
			gr.RegionCacheHit = true
			c.regionHits.Add(1)
		}
	}
	// Everything else answers to the analyzed facts and shape ranges.
	if cerr == nil && r.layout == nil {
		if cerr = ct.CheckFacts(env); cerr == nil {
			cerr = ct.CheckShapes(env)
		}
	}
	if cerr != nil {
		if err := violated(cerr); err != nil {
			return rung{}, err
		}
	}
	// Quarantined plan: the caller distrusts the planned tier outright.
	// Only sound bindings are still planned here; degraded entries keep
	// their (stronger) fallback.
	if opts.ForceDynamic && gr.Tier == guard.TierPlanned {
		gr.degrade("plan quarantined by circuit breaker", guard.KindQuarantine, guard.TierDynamic)
	}
	// A request that satisfied the contract but that no proof covers (an
	// unprovable model, a binding outside the proven region) has no plan.
	// The verifier's verdicts, computed once per compile, name its rung:
	// a refuted order cannot be trusted at all, anything else only rules
	// out planned offsets.
	if gr.Tier == guard.TierPlanned && r.layout == nil {
		verr := &guard.ContractError{Kind: guard.KindMemPlan, Detail: "binding outside the proven region"}
		switch {
		case !rep.Exec.Proven:
			verr = &guard.ContractError{Kind: guard.KindExecPlan, Detail: "compiled order refuted",
				Cause: errors.New(rep.Exec.Reason)}
		case !rep.Mem.Proven:
			verr.Detail = "memory plan not proven: " + rep.Mem.Reason
		}
		if err := violated(verr); err != nil {
			return rung{}, err
		}
	}
	// The budget is the request's, so it is checked against the proven
	// layout rather than baked into the proof — at its worst-case arena
	// size, which bounds every fitted one.
	if gr.Tier == guard.TierPlanned && opts.ArenaBudget > 0 && r.layout.ArenaSize > opts.ArenaBudget {
		verr := &guard.ContractError{Kind: guard.KindBudget,
			Detail: fmt.Sprintf("planned arena %d bytes exceeds budget %d", r.layout.ArenaSize, opts.ArenaBudget)}
		if err := violated(verr); err != nil {
			return rung{}, err
		}
	}

	r.tier = gr.Tier
	switch r.tier {
	case guard.TierPlanned:
		var parallel bool
		if r.layout, parallel = c.plannedLayout(rep, opts); parallel {
			r.workers = opts.Workers
			if r.workers <= 0 {
				r.workers = runtime.GOMAXPROCS(0)
			}
			gr.Wavefronts, gr.ParallelWorkers = c.WavePlan.NumWaves(), r.workers
		}
	case guard.TierReplan:
		// Re-analyze under the concrete input shapes and rebuild the
		// execution order (MNN-style re-initialization).
		order, ms, err := c.replan(inputs)
		if err != nil {
			return rung{}, fmt.Errorf("frameworks: re-plan failed: %w", err)
		}
		gr.Degradations[len(gr.Degradations)-1].ReplanMS = ms
		r.order, r.layout = order, nil
	default:
		r.layout = nil
	}
	return r, nil
}

// plannedLayout is the proven layout a planned request under opts runs
// on. Wavefront-parallel serving takes the wave-widened layout: only when
// the request asks for it, the concurrency proof passed, there is a wave
// partition to run, and the (larger) widened arena also fits the budget.
// Anything short of that runs sequentially on the region proof's layout
// — a scheduling choice, not a degradation.
func (c *Compiled) plannedLayout(rep *staticverify.Report, opts GuardOptions) (layout *memplan.Layout, parallel bool) {
	if wave := rep.Wave.Layout; opts.Parallel && wave != nil && c.WavePlan != nil &&
		(opts.ArenaBudget <= 0 || wave.ArenaSize <= opts.ArenaBudget) {
		return wave, true
	}
	return rep.Mem.Layout, false
}

// runRung is the one place a guarded request executes: exec.Run under
// the request's Ctx/MaxLoopIters/Hooks — on a rung with a layout, into a
// kept arena buffer with the layout fitted to the request — then the
// epilogue every tier owes its caller: every graph output produced,
// outputs detached from the arena (before its buffer goes back to the
// stack), and the non-finite scan.
func (c *Compiled) runRung(r rung, inputs map[string]*tensor.Tensor, opts GuardOptions, gr *GuardReport) (*exec.Result, error) {
	eo := exec.Options{
		Order:        r.order,
		Ctx:          opts.Ctx,
		MaxLoopIters: opts.MaxLoopIters,
		Hooks:        opts.Hooks,
	}
	if r.layout != nil {
		ab := c.arenas.pop()
		defer c.arenas.push(ab)
		eo.Arena = ab.fit(r.layout, c.Infos, r.env)
	}
	if r.workers > 0 {
		eo.Waves, eo.Workers = c.WavePlan.Waves, r.workers
	}
	res, err := exec.Run(r.graph, inputs, eo)
	if err != nil {
		return nil, err
	}
	// exec.Run copies whatever the schedule left behind: a schedule that
	// skips a producer yields a nil output, not an error.
	for _, o := range r.graph.Outputs {
		if res.Outputs[o] == nil {
			return nil, &guard.ContractError{Kind: guard.KindExecPlan,
				Detail: fmt.Sprintf("%s tier produced no output %q (incomplete schedule)", r.tier, o)}
		}
	}
	if eo.Arena != nil {
		gr.ArenaHighWater = eo.Arena.HighWater
		eo.Arena.Detach(res.Outputs)
	}
	if err := guard.CheckFinite(res.Outputs); err != nil {
		return nil, err
	}
	return res, nil
}

// descend names the rung a faulted rung falls to and the violation kind
// the step is recorded under; ok is false when the fault is the
// request's answer (always, under Strict).
func (c *Compiled) descend(r rung, err error, opts GuardOptions) (next rung, kind guard.ViolationKind, ok bool) {
	if opts.Strict {
		return rung{}, "", false
	}
	switch {
	case r.layout != nil && exec.IsArenaFault(err):
		// The plan disagreed with runtime reality (injected OOM, stale
		// offsets). The dynamic allocator is immune.
		return rung{tier: guard.TierDynamic, graph: r.graph, order: r.order}, guard.KindMemPlan, true
	case r.graph == c.Graph && c.quantized() && contractKind(err) == guard.KindNumeric:
		// Non-finite outputs from packed weights may be the weights' own
		// fault (a corrupted block scale): re-serve on the float32 rung
		// instead of failing the request.
		return c.float32Rung(r), guard.KindQuant, true
	}
	return rung{}, "", false
}

// float32Rung is r with the original float32 weights restored. It
// allocates dynamically: the quantized compile's arena plan excludes the
// packed weights the float graph no longer uses, so no plan applies.
func (c *Compiled) float32Rung(r rung) rung {
	return rung{tier: guard.TierFloat32, graph: c.floatGraph(), order: r.order}
}

// quantized reports whether the compile packed any weights.
func (c *Compiled) quantized() bool { return c.Quant != nil && c.Quant.Tensors > 0 }

// contractKind is the violation kind of a contract error ("" for any
// other error).
func contractKind(err error) guard.ViolationKind {
	var ce *guard.ContractError
	if errors.As(err, &ce) {
		return ce.Kind
	}
	return ""
}

// replan re-analyzes the graph with every input shape pinned to its
// concrete dims and rebuilds the execution plan, returning the new order
// and the wall-clock cost in milliseconds.
func (c *Compiled) replan(inputs map[string]*tensor.Tensor) ([]*graph.Node, float64, error) {
	start := time.Now()
	overrides := map[string]lattice.Shape{}
	for _, in := range c.Graph.Inputs {
		if t := inputs[in.Name]; t != nil {
			overrides[in.Name] = lattice.FromInts(t.Shape...)
		}
	}
	res, err := rdp.Analyze(c.Graph, overrides, rdp.Options{})
	if err != nil {
		return nil, 0, err
	}
	p, err := plan.Build(c.Graph, res.Infos, plan.Options{})
	if err != nil {
		return nil, 0, err
	}
	return p.Order, float64(time.Since(start).Microseconds()) / 1000, nil
}
