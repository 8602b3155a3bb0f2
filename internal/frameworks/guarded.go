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
	"repro/internal/tensor"
)

// GuardOptions configure one guarded inference.
type GuardOptions struct {
	// Ctx, when non-nil, bounds the inference: cancellation is honored
	// between nodes, including inside If/Loop bodies.
	Ctx context.Context
	// ArenaBudget caps the arena footprint in bytes; a plan over budget
	// degrades to the dynamic allocator instead of being executed.
	ArenaBudget int64
	// MaxLoopIters caps Loop trip counts (exec.DefaultMaxLoopIters if 0).
	MaxLoopIters int64
	// Hooks are threaded into the executor (fault injection, tracing).
	Hooks *exec.Hooks
	// MutatePlan, when set, edits the verified memory plan before the
	// arena is built — a test hook for forcing offset conflicts.
	MutatePlan func(*memplan.Plan)
	// Strict turns degradations into errors: any contract violation
	// fails the inference instead of falling back.
	Strict bool
	// ForceDynamic starts the run on the dynamic fallback tier: the
	// planned arena and the shape-family fast path are not consulted.
	// This is the circuit breaker's quarantine/probation serving mode —
	// the plan is distrusted until re-verification passes, but requests
	// still complete (contract checking and kernel containment stay on).
	// The forced fallback is recorded as a KindQuarantine degradation,
	// never escalated to an error by Strict (the caller asked for it).
	ForceDynamic bool
	// SkipFiniteCheck disables the output NaN/Inf scan.
	SkipFiniteCheck bool
	// VerifyDrift, on a quantized compile, re-runs the request with the
	// float32 weights and checks the quantized outputs against the
	// model's accuracy-drift budget (doubles the request's compute; the
	// reference outputs serve the request if the contract is violated).
	VerifyDrift bool
	// Parallel requests wavefront-parallel execution on the planned
	// tier: kernels of each statically planned wave run concurrently on
	// a worker pool, against the wave-widened (concurrency-proven)
	// arena plan. Requests that cannot run parallel soundly — no wave
	// partition, widened plan unverified or over budget, degraded tier —
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
	// ReplanMS is the wall-clock cost of re-analysis + re-planning
	// (only non-zero when Tier == TierReplan).
	ReplanMS float64
	// ArenaHighWater is the peak arena byte touched (planned tier only).
	ArenaHighWater int64
	// PlanCacheHit reports that the shape-keyed plan cache supplied the
	// contract binding and verified memory plan, skipping
	// re-verification for this request.
	PlanCacheHit bool
	// RegionCacheHit reports that the statically-proven shape-family plan
	// served this request: the input shapes bound inside the verified
	// region, so the region-wide worst-case plan applied with no
	// per-shape contract or plan verification — including for shapes
	// never seen before (Verify / CompileVerified path).
	RegionCacheHit bool
	// Wavefronts is the number of waves the run executed under the
	// wavefront-parallel interpreter (0 = sequential), and
	// ParallelWorkers the pool size it ran with.
	Wavefronts      int
	ParallelWorkers int
	// Specialized reports the run was served by a specializer-rewritten
	// graph; SpecFallback that it fell back to the original graph because
	// the inputs were outside a region-dependent certificate's region.
	Specialized  bool
	SpecFallback bool
}

// Contract returns the model's runtime contract: declared symbolic input
// shapes, the RDP fixed point, and analyzed input facts (extent ranges
// and divisibility) derived from the model's sampling spec. Built once
// and cached on the Compiled (safe for concurrent use).
func (c *Compiled) Contract() *guard.Contract {
	c.contractOnce.Do(func() {
		ct := guard.NewContract(c.Graph, c.Infos)
		// Warm boot installs the facts persisted at compile time so the
		// contract matches the stored proof without re-probing the input
		// generator at both ends of the sampling range.
		facts := c.presetFacts
		if facts == nil {
			facts = probeExtents(c.Builder, c.Graph, c.Infos).facts()
		}
		for _, f := range facts {
			ct.AddFact(f)
		}
		c.contract = ct
	})
	return c.contract
}

// GuardedRun executes one set of inputs under the full runtime contract:
//
//  1. Bind the concrete input shapes against the RDP symbolic shapes and
//     check the analyzed facts (ranges, divisibility) and shape
//     non-negativity.
//  2. Statically verify the execution plan (every node once, deps
//     respected) and the memory plan (no overlapping live ranges,
//     within budget) for this binding.
//  3. Execute at the highest sound tier — arena-planned, then dynamic
//     allocation, then full re-analysis + re-planning — degrading on
//     contract violations or arena faults rather than failing, and
//     recording every fallback taken.
//
// Kernel panics surface as *guard.OpError; a nil error means the outputs
// are complete (possibly via a degraded tier — check the GuardReport).
//
// GuardedRun is safe for concurrent use on a shared Compiled. The
// shape-dependent work — contract binding, fact/shape checks, plan
// verification, arena sizing — is memoized per input-shape key in a
// bounded LRU (§4.3–§4.4's static planning done once per shape), with
// singleflight dedup so concurrent cold misses verify once; repeat
// shapes skip re-verification entirely (GuardReport.PlanCacheHit).
// The arena is one allocation sized by the verified plan and owned by
// this run alone; outputs are detached from it on return so they do not
// pin the whole buffer.
func (c *Compiled) GuardedRun(inputs map[string]*tensor.Tensor, opts GuardOptions) (*exec.Result, *GuardReport, error) {
	gr := &GuardReport{Tier: guard.TierPlanned}
	degrade := func(reason string, kind guard.ViolationKind, to guard.Tier) {
		gr.Degradations = append(gr.Degradations, guard.Degradation{
			Reason: reason, Kind: kind, From: gr.Tier, To: to})
		gr.Tier = to
	}

	// 0. Specialization region gate: a region-dependent certificate means
	// the specialized graph is only proven equivalent to the original for
	// in-region inputs. Out-of-region requests execute the original graph
	// with dynamic allocation — a recorded degradation, not an error
	// (unless Strict), because the original graph is always sound.
	if c.specFallbackNeeded(inputs) {
		verr := &guard.ContractError{Kind: guard.KindFact,
			Detail: "inputs outside specialization region"}
		if opts.Strict {
			return nil, gr, verr
		}
		degrade(verr.Error()+"; executing original graph", guard.KindFact, guard.TierDynamic)
		gr.SpecFallback = true
		return c.runOriginal(inputs, opts, gr)
	}
	gr.Specialized = c.SpecCert.TopologyChanged()

	// 1.+2. Shape-dependent verification: contract binding, analyzed
	// facts, execution-plan and memory-plan checks. The outcome is a
	// pure function of the input shapes, so it is served from the
	// shape-keyed plan cache when possible; MutatePlan (a test hook that
	// edits the plan) forces the uncached path.
	var outcome *planOutcome
	// Shape-family fast path: when the static verifier proved the memory
	// plan over the model's input region, any request binding inside the
	// region is served with the proven worst-case plan — no fact/shape
	// checks, no plan verification, no per-shape cache entry. Requests
	// outside the region (or any bind failure) fall through to the
	// per-shape path, which re-checks everything.
	if opts.MutatePlan == nil && !opts.ForceDynamic {
		if rep := c.verified.Load(); rep != nil && rep.Mem.Proven {
			if env, err := c.Contract().BindInputs(inputs); err == nil && rep.Region.ContainsEnv(env) {
				// rep.Wave.Plan is non-nil exactly when the wavefront
				// proof passed, so the fast path serves parallel
				// requests too.
				outcome = &planOutcome{env: env, plan: rep.Mem.Plan, wavePlan: rep.Wave.Plan}
				gr.RegionCacheHit = true
				c.regionHits.Add(1)
			}
		}
	}
	if outcome == nil && opts.MutatePlan == nil {
		if key, ok := c.planKey(inputs); ok {
			outcome, gr.PlanCacheHit = c.plans.do(key, func() *planOutcome {
				return c.buildPlanOutcome(inputs, nil)
			})
		}
	}
	if outcome == nil {
		outcome = c.buildPlanOutcome(inputs, opts.MutatePlan)
	}

	// Interpret the input-side verdict under this request's options.
	if cerr := outcome.cerr; cerr != nil {
		var ce *guard.ContractError
		if !errors.As(cerr, &ce) {
			return nil, gr, cerr
		}
		switch ce.Kind {
		case guard.KindInput:
			// Missing inputs / wrong dtypes cannot run on any tier.
			return nil, gr, cerr
		case guard.KindBind:
			// The binding contradicts the analysis: the RDP fixed point
			// does not describe these inputs, so re-analyze from scratch.
			if opts.Strict {
				return nil, gr, cerr
			}
			degrade(ce.Error(), ce.Kind, guard.TierReplan)
		default:
			// Out-of-range or misaligned extents: the symbols bound, but
			// planned offsets are unsound. Dynamic allocation is safe.
			if opts.Strict {
				return nil, gr, cerr
			}
			degrade(ce.Error(), ce.Kind, guard.TierDynamic)
		}
	}

	// Quarantined plan: the caller distrusts the planned tier outright.
	// Only sound bindings reach here still planned; degraded tiers keep
	// their (stronger) fallback.
	if opts.ForceDynamic && gr.Tier == guard.TierPlanned {
		degrade("plan quarantined by circuit breaker", guard.KindQuarantine, guard.TierDynamic)
	}

	// Interpret the plan-side verdicts (only meaningful when the binding
	// is sound).
	order := c.ExecPlan.Order
	var arena *exec.Arena
	if gr.Tier == guard.TierPlanned {
		if err := outcome.execPlanErr; err != nil {
			if opts.Strict {
				return nil, gr, err
			}
			degrade(err.Error(), guard.KindExecPlan, guard.TierReplan)
		}
	}
	if gr.Tier == guard.TierPlanned {
		switch {
		case outcome.memErr != nil:
			if opts.Strict {
				return nil, gr, outcome.memErr
			}
			degrade(outcome.memErr.Error(), outcome.memErrKind, guard.TierDynamic)
		case opts.ArenaBudget > 0 && outcome.plan.ArenaSize > opts.ArenaBudget:
			// The budget is per-request, so it is re-checked on every
			// cache hit rather than baked into the cached outcome.
			verr := &guard.ContractError{Kind: guard.KindBudget,
				Detail: fmt.Sprintf("planned arena %d bytes exceeds budget %d", outcome.plan.ArenaSize, opts.ArenaBudget)}
			if opts.Strict {
				return nil, gr, verr
			}
			degrade(verr.Error(), guard.KindBudget, guard.TierDynamic)
		default:
			pl := outcome.plan
			// Wavefront-parallel serving: only on the planned tier,
			// only with a concurrency-proven widened plan, and only
			// when the (larger) widened arena also fits the budget.
			// Anything short of that runs sequentially — a scheduling
			// choice, not a degradation.
			if opts.Parallel && outcome.wavePlan != nil && c.WavePlan != nil &&
				(opts.ArenaBudget <= 0 || outcome.wavePlan.ArenaSize <= opts.ArenaBudget) {
				pl = outcome.wavePlan
				gr.Wavefronts = c.WavePlan.NumWaves()
				gr.ParallelWorkers = opts.Workers
				if gr.ParallelWorkers <= 0 {
					gr.ParallelWorkers = runtime.GOMAXPROCS(0)
				}
			}
			arena = exec.NewArena(pl.Offsets, pl.ArenaSize)
			arena.Budget = opts.ArenaBudget
		}
	}

	execOpts := exec.Options{
		Order:        order,
		Arena:        arena,
		Ctx:          opts.Ctx,
		MaxLoopIters: opts.MaxLoopIters,
		Hooks:        opts.Hooks,
	}
	if gr.Wavefronts > 0 {
		execOpts.Waves = c.WavePlan.Waves
		execOpts.Workers = gr.ParallelWorkers
	}

	// 3. Re-plan tier: re-analyze under the concrete input shapes and
	// rebuild the execution order (MNN-style re-initialization).
	if gr.Tier == guard.TierReplan {
		newOrder, ms, err := c.replan(inputs)
		if err != nil {
			return nil, gr, fmt.Errorf("frameworks: re-plan failed: %w", err)
		}
		gr.ReplanMS = ms
		if len(gr.Degradations) > 0 {
			gr.Degradations[len(gr.Degradations)-1].ReplanMS = ms
		}
		execOpts.Order = newOrder
		execOpts.Arena = nil
	}

	res, err := exec.Run(c.Graph, inputs, execOpts)
	if err != nil && gr.Tier == guard.TierPlanned && exec.IsArenaFault(err) && !opts.Strict {
		// The plan disagreed with runtime reality (injected OOM, stale
		// offsets). The dynamic allocator is immune: retry without the
		// arena.
		degrade(err.Error(), guard.KindMemPlan, guard.TierDynamic)
		arena, execOpts.Arena = nil, nil
		// The dynamic retry runs sequentially: without the widened
		// arena plan there is no concurrency soundness proof.
		execOpts.Waves, execOpts.Workers = nil, 0
		gr.Wavefronts, gr.ParallelWorkers = 0, 0
		res, err = exec.Run(c.Graph, inputs, execOpts)
	}
	if err != nil {
		return nil, gr, err
	}
	if arena != nil {
		gr.ArenaHighWater = arena.HighWater
		arena.Detach(res.Outputs)
	}
	if !opts.SkipFiniteCheck {
		if ferr := guard.CheckFinite(res.Outputs); ferr != nil {
			// A quantized compile that went non-finite may be the packed
			// weights' fault (e.g. a corrupted block scale): re-serve on
			// the float32 weight tier instead of failing the request.
			if c.Quant != nil && c.Quant.Tensors > 0 && !opts.Strict {
				return c.float32Fallback(inputs, opts, gr, ferr)
			}
			return nil, gr, ferr
		}
	}
	// Accuracy-drift contract: re-run the request with the float32
	// weights and bound the quantized outputs' element-wise error. The
	// reference run doubles the request's compute, so callers opt in
	// (serve layers sample it); its outputs double as the f32-tier
	// result when the contract is violated — a typed degradation, never
	// a silent wrong answer.
	if opts.VerifyDrift && c.Quant != nil && c.Quant.Tensors > 0 && c.Quant.Budget.Enabled() {
		ref, rerr := exec.Run(c.floatGraph(), inputs, exec.Options{
			Order: execOpts.Order, Ctx: opts.Ctx, MaxLoopIters: opts.MaxLoopIters,
		})
		if rerr == nil {
			if derr := guard.CheckDrift(ref.Outputs, res.Outputs, c.Quant.Budget); derr != nil {
				if opts.Strict {
					return nil, gr, derr
				}
				gr.Degradations = append(gr.Degradations, guard.Degradation{
					Reason: derr.Error(), Kind: guard.KindQuant,
					From: gr.Tier, To: guard.TierFloat32})
				gr.Tier = guard.TierFloat32
				gr.Wavefronts, gr.ParallelWorkers = 0, 0
				return ref, gr, nil
			}
		}
	}
	return res, gr, nil
}

// float32Fallback re-serves a request with the original float32 weights
// after a quantized run violated its contract (non-finite outputs or
// accuracy drift). It runs the planned order with dynamic allocation:
// the quantized compile's arena plan excludes the packed weights it no
// longer uses, so the plan is not consulted.
func (c *Compiled) float32Fallback(inputs map[string]*tensor.Tensor, opts GuardOptions, gr *GuardReport, cause error) (*exec.Result, *GuardReport, error) {
	gr.Degradations = append(gr.Degradations, guard.Degradation{
		Reason: cause.Error(), Kind: guard.KindQuant, From: gr.Tier, To: guard.TierFloat32})
	gr.Tier = guard.TierFloat32
	gr.Wavefronts, gr.ParallelWorkers = 0, 0
	res, err := exec.Run(c.floatGraph(), inputs, exec.Options{
		Order: c.ExecPlan.Order, Ctx: opts.Ctx, MaxLoopIters: opts.MaxLoopIters,
	})
	if err != nil {
		return nil, gr, err
	}
	if !opts.SkipFiniteCheck {
		if ferr := guard.CheckFinite(res.Outputs); ferr != nil {
			return nil, gr, ferr
		}
	}
	return res, gr, nil
}

// buildPlanOutcome runs the full shape-dependent verification pipeline:
// contract check (bind + facts + shape ranges), execution-plan
// verification, memory-plan construction + verification. With mutate ==
// nil the result depends only on the input shapes and is cacheable per
// shape key; a non-nil mutate (test hook) edits the plan before
// verification and must stay uncached.
func (c *Compiled) buildPlanOutcome(inputs map[string]*tensor.Tensor, mutate func(*memplan.Plan)) *planOutcome {
	o := &planOutcome{}
	o.env, o.cerr = c.Contract().Check(inputs)
	if o.cerr != nil {
		// Degraded tiers never consult the plans; skip the verification
		// work the old inline path skipped too.
		return o
	}
	o.execPlanErr = guard.VerifyExecutionPlan(c.Graph, c.ExecPlan.Order)
	if o.execPlanErr != nil {
		return o
	}
	pl, prog := memProgram(c.Graph, c.ExecPlan.Order, c.Infos, o.env, c.valueDTypes())
	if mutate != nil {
		mutate(pl)
	}
	if verr := guard.VerifyMemoryPlan(pl, prog); verr != nil {
		o.memErr = verr
		o.memErrKind = guard.KindMemPlan
		var ce *guard.ContractError
		if errors.As(verr, &ce) {
			o.memErrKind = ce.Kind
		}
		return o
	}
	o.plan = pl
	// Wave-widened plan for parallel serving: widen this shape's
	// lifetimes to wave granularity, re-place, and re-verify against the
	// widened program. Failure leaves wavePlan nil — parallel requests
	// for this shape fall back to sequential planned execution.
	if mutate == nil && c.WavePlan != nil {
		if widened, err := memplan.WidenWaves(prog, c.WavePlan.Ranges); err == nil {
			wp := memplan.PeakFirst(widened)
			if guard.VerifyMemoryPlan(wp, widened) == nil {
				o.wavePlan = wp
			}
		}
	}
	return o
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
