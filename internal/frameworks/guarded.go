package frameworks

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/memplan"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// GuardOptions configure one guarded inference.
type GuardOptions struct {
	// Ctx, when non-nil, bounds the inference: cancellation is honored
	// between nodes, including inside If/Loop bodies.
	Ctx context.Context
	// Hooks are threaded into the executor on every rung a request runs
	// (fault injection, tracing).
	Hooks *exec.Hooks
	// ForceDynamic starts the run on the dynamic fallback tier: the
	// region proof's layout is not used and no arena is taken.
	// This is the circuit breaker's quarantine/probation serving mode —
	// the plan is distrusted until re-verification passes, but requests
	// still complete (contract checking and kernel containment stay on).
	// The forced fallback is recorded as a KindQuarantine degradation.
	ForceDynamic bool
	// VerifyDrift, on a quantized compile, re-runs the request on the
	// float32 rung and checks the quantized outputs against the model's
	// accuracy-drift budget (doubles the request's compute; the
	// reference outputs serve the request if the contract is violated).
	VerifyDrift bool
	// Threads is the request's intra-op thread budget: every kernel, on
	// every rung and inside If/Loop bodies, splits its work over up to
	// that many goroutines (<=1 runs each kernel on the caller's
	// goroutine). Outputs are bit-identical at every budget.
	Threads int
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
}

// degrade records one step down the ladder.
func (gr *GuardReport) degrade(reason string, kind guard.ViolationKind, to guard.Tier) {
	gr.Degradations = append(gr.Degradations, guard.Degradation{
		Reason: reason, Kind: kind, From: gr.Tier, To: to})
	gr.Tier = to
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
}

// GuardedRun executes one set of inputs under the full runtime contract,
// as an explicit ladder of rungs:
//
//	planned   compiled graph, planned order, the region proof's layout
//	          fitted to this request
//	dynamic   compiled graph, planned order (declaration order when the
//	          verifier refuted it), per-tensor allocation
//	float32   compiled topology with the float32 weights restored
//
// The inputs are bound against the RDP symbolic shapes exactly once, and
// that binding's verdicts pick the entry rung (entryRung): inside the
// statically proven region the request enters on the planned rung with
// the region-wide layout and no per-shape checking at all; every other
// request enters on the dynamic rung, with no per-request re-analysis.
// A run-time fault then descends (descend): an arena fault from planned
// to dynamic, non-finite outputs of quantized weights to float32. Every
// step is recorded in the GuardReport.
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
		next, kind, ok := c.descend(r, err)
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
			gr.degrade(derr.Error(), guard.KindQuant, f32.tier)
			return ref, gr, nil
		}
	}
	return res, gr, nil
}

// entryRung binds the inputs once and reads every entry verdict off that
// one binding. A request inside the statically proven region enters on
// the planned rung; any other enters on the dynamic rung, with one
// degradation naming the first verdict that kept it off the plan. A
// non-nil error means no rung may serve the request: inputs no tier can
// run.
func (c *Compiled) entryRung(inputs map[string]*tensor.Tensor, opts GuardOptions, gr *GuardReport) (rung, error) {
	ct := c.Contract()
	env, cerr := ct.BindInputs(inputs)
	if cerr != nil && contractKind(cerr) == guard.KindInput {
		// Missing, mistyped or empty inputs cannot run on any tier.
		return rung{}, cerr
	}

	// One plan source for the planned rung: the region proof. A request
	// binding inside the proven region is served with the region-wide
	// layout, fitted to its own sizes — no fact/shape checks, including
	// for shapes never seen before.
	rep := c.Verify()
	r := rung{tier: guard.TierPlanned, graph: c.Graph, order: c.ExecPlan.Order, env: env}
	if cerr == nil && !opts.ForceDynamic && rep.Mem.Proven && rep.Region.ContainsEnv(env) {
		r.layout = rep.Mem.Layout
		gr.RegionCacheHit = true
		c.regionHits.Add(1)
		return r, nil
	}

	// Everything else runs dynamic. Its verdict, in order: the binding,
	// the analyzed facts and shape ranges, a quarantined plan, and then
	// whichever proof does not cover a request that satisfied the
	// contract (a refuted order, an unproven memory plan, a binding
	// outside the proven region).
	if cerr == nil {
		if cerr = ct.CheckFacts(env); cerr == nil {
			cerr = ct.CheckShapes(env)
		}
	}
	switch {
	case cerr != nil:
		gr.degrade(cerr.Error(), contractKind(cerr), guard.TierDynamic)
	case opts.ForceDynamic:
		gr.degrade("plan quarantined by circuit breaker", guard.KindQuarantine, guard.TierDynamic)
	case !rep.Exec.Proven:
		verr := &guard.ContractError{Kind: guard.KindExecPlan, Detail: "compiled order refuted",
			Cause: errors.New(rep.Exec.Reason)}
		gr.degrade(verr.Error(), verr.Kind, guard.TierDynamic)
	default:
		verr := &guard.ContractError{Kind: guard.KindMemPlan, Detail: "binding outside the proven region"}
		if !rep.Mem.Proven {
			verr.Detail = "memory plan not proven: " + rep.Mem.Reason
		}
		gr.degrade(verr.Error(), verr.Kind, guard.TierDynamic)
	}
	r.tier = guard.TierDynamic
	if !rep.Exec.Proven {
		// The order and a node's arithmetic are independent, so any
		// topological order serves the same outputs; the refuted one is
		// no schedule at all.
		r.order = nil
	}
	return r, nil
}

// runRung is the one place a guarded request executes: exec.Run under
// the request's Ctx/Hooks/Threads — on a rung with a layout, into a kept
// arena buffer with the layout fitted to the request — then the epilogue
// every tier owes its caller: every graph output produced, outputs
// detached from the arena (before its buffer goes back to the stack),
// and the non-finite scan.
func (c *Compiled) runRung(r rung, inputs map[string]*tensor.Tensor, opts GuardOptions, gr *GuardReport) (*exec.Result, error) {
	eo := exec.Options{Order: r.order, Ctx: opts.Ctx, Hooks: opts.Hooks, Threads: opts.Threads}
	if r.layout != nil {
		ab := c.arenas.pop()
		defer c.arenas.push(ab)
		eo.Arena = ab.fit(r.layout, c.Infos, r.env)
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
// request's answer.
func (c *Compiled) descend(r rung, err error) (next rung, kind guard.ViolationKind, ok bool) {
	switch {
	case r.layout != nil && exec.IsArenaFault(err):
		// The plan disagreed with runtime reality (injected OOM, stale
		// offsets). The dynamic allocator is immune.
		return rung{tier: guard.TierDynamic, graph: r.graph, order: r.order}, guard.KindMemPlan, true
	case r.graph == c.Graph && c.quantized() && contractKind(err) == guard.KindNumeric:
		// Non-finite outputs from packed weights may be the weights' own
		// fault (a corrupted row scale): re-serve on the float32 rung
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
