// Package exec is SoD²'s graph executor: it runs a computational graph
// over concrete tensors in a chosen operator order, executes the
// control-flow operators (<Switch, Combine>, If, Loop), tracks live
// intermediate-result memory (the quantity Table 5 reports), and, for an
// observed run, emits the per-operator trace the cost model prices.
package exec

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// LoopTripCap caps Loop trip counts: a runaway or corrupted trip-count
// tensor returns an error instead of hanging the inference. A node's
// static_max_trip attribute tightens it for that loop.
const LoopTripCap = 1_000_000

// Hooks intercept execution at well-defined points. They exist for the
// guarded-execution subsystem and the deterministic fault-injection
// harness; nil hooks cost nothing. Hooks propagate into If/Loop bodies.
// A non-nil Hooks, even an empty one, also makes the run record
// Trace.Events — the observed run the cost model prices.
//
// The tensors PreKernel and PostKernel receive are valid only for the
// duration of the call: an input may view arena storage that a later
// request reuses (see NewArena). A hook that keeps tensor data past the
// call keeps a copy.
type Hooks struct {
	// PreKernel runs before each non-control-flow operator's kernel; a
	// non-nil error aborts the inference (wrapped in *guard.OpError).
	PreKernel func(n *graph.Node, in []*tensor.Tensor) error
	// PostKernel runs after a kernel succeeds and may mutate the
	// freshly produced outputs (fault injection); a non-nil error
	// aborts the inference.
	PostKernel func(n *graph.Node, out []*tensor.Tensor) error
	// OnAlloc observes every intermediate-tensor allocation; a non-nil
	// error aborts the inference (the fault injector's OOM mode).
	OnAlloc func(name string, bytes int64) error
}

// OpEvent records one executed operator for the cost model.
type OpEvent struct {
	Node      *graph.Node
	OpType    string
	InShapes  [][]int64
	OutShapes [][]int64
	// InNames/OutNames align with InShapes/OutShapes (only values that
	// were actually present/produced appear).
	InNames  []string
	OutNames []string
	// OutBytes aligns with OutNames: exact payload sizes.
	OutBytes []int64
	// Skipped marks operators on untaken control-flow paths that a
	// baseline framework still "executes" under the execute-all policy.
	Skipped bool
}

// Trace is the ordered record of one inference.
type Trace struct {
	// Events is recorded only when Options.Hooks is non-nil.
	Events []OpEvent
	// PeakLiveBytes is the maximum concurrently-live intermediate-result
	// footprint under precise liveness (free-at-last-use).
	PeakLiveBytes int64
	// TotalAllocBytes is the sum of all intermediate allocations.
	TotalAllocBytes int64
	// AllocCount is the number of buffer allocations performed.
	AllocCount int64
}

// Options configure one execution.
type Options struct {
	// Order overrides the execution order (must be a valid topological
	// order of the graph's nodes). Nil means graph topo order.
	Order []*graph.Node
	// ExecuteAllBranches mimics the baseline frameworks' control-flow
	// policy (§2): run every Switch/If path and strip invalid results.
	ExecuteAllBranches bool
	// Arena, when non-nil, stores planned float32 intermediates at their
	// assigned offsets in one backing buffer (§4.4.1's runtime plan):
	// kernels write them there directly.
	Arena *Arena
	// Ctx, when non-nil, is checked before every operator (including
	// inside If/Loop bodies): cancellation or deadline expiry aborts
	// the inference with the context's error.
	Ctx context.Context
	// Hooks, when non-nil, intercept kernel and allocation events.
	Hooks *Hooks
	// Threads is the intra-op thread budget every kernel runs with,
	// including inside If/Loop bodies (<=1 runs each kernel on the
	// calling goroutine). Kernels stripe their output ranges without
	// changing any element's arithmetic order, so outputs are
	// bit-identical at every budget.
	Threads int
}

// subOptions derives the options an If/Loop body run inherits. Order
// and the arena's slots are dropped: a body runs in its own declaration
// order with dynamic allocation. Its kernels keep the run's scratch,
// through bodyArena, a slotless arena held on the executor, so a body
// run allocates nothing more for it.
func (ex *executor) subOptions() Options {
	o := ex.opts
	sub := Options{
		ExecuteAllBranches: o.ExecuteAllBranches,
		Ctx:                o.Ctx,
		Hooks:              o.Hooks,
		Threads:            o.Threads,
	}
	if o.Arena != nil && o.Arena.Scratch != nil {
		ex.bodyArena.Scratch = o.Arena.Scratch
		sub.Arena = &ex.bodyArena
	}
	return sub
}

// Result bundles the outputs and the trace of one inference.
type Result struct {
	Outputs map[string]*tensor.Tensor
	Trace   Trace
}

// Run executes g over the named inputs.
func Run(g *graph.Graph, inputs map[string]*tensor.Tensor, opts Options) (*Result, error) {
	ex := &executor{g: g, opts: opts, values: map[string]*tensor.Tensor{}, res: &Result{}}
	return ex.run(inputs)
}

type executor struct {
	g      *graph.Graph
	opts   Options
	values map[string]*tensor.Tensor
	res    *Result

	liveBytes int64
	refCount  map[string]int
	isOutput  map[string]bool
	// invalid marks values derived from untaken Switch branches under
	// the execute-all policy; Combine strips them (§2: "execution of all
	// possible paths, and stripping out invalid results").
	invalid map[string]bool

	// kc is every kernel call's context: the run's thread budget and,
	// with an arena, dest, which hands each kernel its outputs' slots.
	kc   kernels.Ctx
	dest arenaDest
	// bodyArena carries the run's kept scratch, and no slots, into its
	// If/Loop bodies (subOptions).
	bodyArena Arena
}

func (ex *executor) run(inputs map[string]*tensor.Tensor) (*Result, error) {
	g := ex.g
	order := ex.opts.Order
	if order == nil {
		var err error
		order, err = g.TopoSort()
		if err != nil {
			return nil, err
		}
	}

	ex.kc.Threads = max(1, ex.opts.Threads)
	if ex.opts.Arena != nil {
		ex.dest.a = ex.opts.Arena
		ex.kc.Dest = &ex.dest
	}

	// Reference counts for free-at-last-use.
	ex.refCount = map[string]int{}
	ex.isOutput = map[string]bool{}
	ex.invalid = map[string]bool{}
	for _, o := range g.Outputs {
		ex.isOutput[o] = true
	}
	for _, n := range order {
		for _, in := range n.Inputs {
			if in != "" {
				ex.refCount[in]++
			}
		}
	}

	for _, in := range g.Inputs {
		t, ok := inputs[in.Name]
		if !ok {
			return nil, fmt.Errorf("exec: missing input %q", in.Name)
		}
		ex.values[in.Name] = t
	}
	for name, t := range g.Initializers {
		ex.values[name] = t
	}

	for _, n := range order {
		if err := ex.checkCtx(n); err != nil {
			return nil, err
		}
		if err := ex.safeExec(n); err != nil {
			return nil, err
		}
	}

	ex.res.Outputs = map[string]*tensor.Tensor{}
	for _, o := range g.Outputs {
		ex.res.Outputs[o] = ex.values[o]
	}
	detachCallerOwned(g, ex.values, ex.res.Outputs)
	return ex.res, nil
}

// checkCtx aborts the inference when the per-inference context is done.
func (ex *executor) checkCtx(n *graph.Node) error {
	if ex.opts.Ctx == nil {
		return nil
	}
	select {
	case <-ex.opts.Ctx.Done():
		if n != nil {
			return fmt.Errorf("exec: inference cancelled before node %s: %w", n.Name, ex.opts.Ctx.Err())
		}
		return fmt.Errorf("exec: inference cancelled: %w", ex.opts.Ctx.Err())
	default:
		return nil
	}
}

// safeExec contains panics at the per-node boundary, converting them
// into structured *guard.OpError values: a buggy kernel or a malformed
// subgraph fails the inference, never the process.
func (ex *executor) safeExec(n *graph.Node) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &guard.OpError{Node: n.Name, Op: n.OpType,
				Cause: fmt.Errorf("%w: %v", guard.ErrPanic, r)}
		}
	}()
	return ex.execNode(n)
}

// runKernel executes a node's kernel with hook interception,
// per-kernel panic containment, the run's intra-op thread budget and,
// with an arena, the node's slots as its outputs' destination.
// Every failure surfaces as *guard.OpError, including a panic in one of
// the kernel's stripes (kernels.ParallelForGrain re-raises it here).
func (ex *executor) runKernel(n *graph.Node, in []*tensor.Tensor) (out []*tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &guard.OpError{Node: n.Name, Op: n.OpType, InputShapes: inputShapes(in),
				Cause: fmt.Errorf("%w: %v", guard.ErrPanic, r)}
		}
	}()
	if h := ex.opts.Hooks; h != nil && h.PreKernel != nil {
		if herr := h.PreKernel(n, in); herr != nil {
			return nil, &guard.OpError{Node: n.Name, Op: n.OpType, InputShapes: inputShapes(in), Cause: herr}
		}
	}
	ex.dest.outs = n.Outputs
	out, kerr := kernels.Run(n, in, &ex.kc)
	if kerr != nil {
		return nil, &guard.OpError{Node: n.Name, Op: n.OpType, InputShapes: inputShapes(in), Cause: kerr}
	}
	if h := ex.opts.Hooks; h != nil && h.PostKernel != nil {
		if herr := h.PostKernel(n, out); herr != nil {
			return nil, &guard.OpError{Node: n.Name, Op: n.OpType, InputShapes: inputShapes(in), Cause: herr}
		}
	}
	return out, nil
}

// inputShapes lists the shapes of the inputs present, for an OpError.
func inputShapes(in []*tensor.Tensor) [][]int64 {
	var s [][]int64
	for _, t := range in {
		if t != nil {
			s = append(s, t.Shape)
		}
	}
	return s
}

// account registers freshly produced intermediates and updates the peak.
func (ex *executor) account(names []string, ts []*tensor.Tensor) error {
	for i, name := range names {
		if name == "" || i >= len(ts) || ts[i] == nil {
			continue
		}
		b := ts[i].Bytes()
		if h := ex.opts.Hooks; h != nil && h.OnAlloc != nil {
			if err := h.OnAlloc(name, b); err != nil {
				return fmt.Errorf("exec: alloc %s (%d bytes): %w", name, b, err)
			}
		}
		ex.liveBytes += b
		ex.res.Trace.TotalAllocBytes += b
		ex.res.Trace.AllocCount++
	}
	if ex.liveBytes > ex.res.Trace.PeakLiveBytes {
		ex.res.Trace.PeakLiveBytes = ex.liveBytes
	}
	return nil
}

// release decrements uses of the node's inputs, freeing dead values.
func (ex *executor) release(n *graph.Node) {
	for i, in := range n.Inputs {
		if in == "" || slices.Contains(n.Inputs[:i], in) {
			continue // absent, or a repeated input already released
		}
		ex.refCount[in]--
		if ex.refCount[in] <= 0 && !ex.isOutput[in] && !ex.isConstantOrInput(in) {
			if t := ex.values[in]; t != nil {
				ex.liveBytes -= t.Bytes()
			}
			delete(ex.values, in)
		}
	}
}

func (ex *executor) isConstantOrInput(name string) bool {
	if _, ok := ex.g.Initializers[name]; ok {
		return true
	}
	return ex.g.IsGraphInput(name)
}

func (ex *executor) gatherInputs(n *graph.Node) ([]*tensor.Tensor, bool) {
	in := make([]*tensor.Tensor, len(n.Inputs))
	allPresent := true
	for i, name := range n.Inputs {
		if name == "" {
			continue
		}
		t, ok := ex.values[name]
		if !ok || t == nil {
			allPresent = false
			continue
		}
		in[i] = t
	}
	return in, allPresent
}

func (ex *executor) emit(n *graph.Node, in, out []*tensor.Tensor, skipped bool) {
	if ex.opts.Hooks == nil {
		return
	}
	ev := OpEvent{Node: n, OpType: n.OpType, Skipped: skipped}
	for i, t := range in {
		if t != nil {
			ev.InShapes = append(ev.InShapes, t.Shape)
			ev.InNames = append(ev.InNames, n.Inputs[i]) // in is gathered per n.Inputs
		}
	}
	for i, t := range out {
		if t != nil {
			ev.OutShapes = append(ev.OutShapes, t.Shape)
			ev.OutBytes = append(ev.OutBytes, t.Bytes())
			if i < len(n.Outputs) {
				ev.OutNames = append(ev.OutNames, n.Outputs[i])
			} else {
				ev.OutNames = append(ev.OutNames, "")
			}
		}
	}
	ex.res.Trace.Events = append(ex.res.Trace.Events, ev)
}

func (ex *executor) execNode(n *graph.Node) error {
	switch n.OpType {
	case "Switch":
		return ex.execSwitch(n)
	case "Combine":
		return ex.execCombine(n)
	case "If":
		return ex.execIf(n)
	case "Loop":
		return ex.execLoop(n)
	}

	in, allPresent := ex.gatherInputs(n)
	if !allPresent {
		ex.skip(n)
		return nil
	}
	out, err := ex.runKernel(n, in)
	if err != nil {
		return err
	}
	for i, name := range n.Outputs {
		if name == "" || i >= len(out) {
			continue
		}
		if out[i], err = ex.opts.Arena.place(name, out[i]); err != nil {
			return err
		}
	}
	// Invalidity propagates: a result computed from an untaken branch's
	// value is itself invalid (but was still executed and costed).
	tainted := false
	for _, name := range n.Inputs {
		if name != "" && ex.invalid[name] {
			tainted = true
			break
		}
	}
	for i, name := range n.Outputs {
		if name == "" || i >= len(out) {
			continue
		}
		ex.values[name] = out[i]
		if tainted {
			ex.invalid[name] = true
		}
	}
	ex.emit(n, in, out, false)
	if err := ex.account(n.Outputs, out); err != nil {
		return err
	}
	ex.release(n)
	return nil
}

// skip records a node on a dead path (an input from an untaken Switch
// branch is absent): nothing runs, and the absence propagates.
func (ex *executor) skip(n *graph.Node) {
	ex.emit(n, nil, nil, true)
	ex.release(n)
}

// truthy interprets a scalar predicate tensor.
func truthy(t *tensor.Tensor) bool {
	if t == nil || t.Len() == 0 {
		return false
	}
	switch t.DType {
	case tensor.Bool:
		return t.B[0]
	case tensor.Int64:
		return t.I[0] != 0
	default:
		return t.F[0] > 0.5
	}
}

// predIndex interprets the predicate as a branch index for multi-way
// Switch nodes.
func predIndex(t *tensor.Tensor, nOut int) int {
	var idx int
	switch t.DType {
	case tensor.Bool:
		if t.B[0] {
			idx = 0
		} else {
			idx = nOut - 1
		}
	case tensor.Int64:
		idx = int(t.I[0])
	default:
		if nOut == 2 {
			if t.F[0] > 0.5 {
				idx = 0
			} else {
				idx = 1
			}
		} else {
			idx = int(t.F[0])
		}
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= nOut {
		idx = nOut - 1
	}
	return idx
}

// execSwitch routes the data input to the predicate-selected output (or
// to every output under the execute-all policy).
func (ex *executor) execSwitch(n *graph.Node) error {
	in, allPresent := ex.gatherInputs(n)
	if !allPresent || len(in) < 2 {
		ex.emit(n, nil, nil, true)
		ex.release(n)
		return nil
	}
	pred, data := in[0], in[1]
	if pred == nil || pred.Len() == 0 || data == nil {
		return fmt.Errorf("exec: Switch %s needs a non-empty predicate and a data input", n.Name)
	}
	taken := predIndex(pred, len(n.Outputs))
	out := make([]*tensor.Tensor, len(n.Outputs))
	for i, name := range n.Outputs {
		if name == "" {
			continue
		}
		if i == taken || ex.opts.ExecuteAllBranches {
			// Each routed output forwards data itself: nothing is
			// copied. The trace still accounts a copy per routed output,
			// the data movement a baseline makes, so the modeled tables
			// compare like with like. The memory proof keeps data's
			// buffer live through every use of an arm (may-alias roots).
			out[i] = data
			ex.values[name] = out[i]
			if i != taken {
				ex.invalid[name] = true
			}
		}
	}
	ex.emit(n, in, out, false)
	if err := ex.account(n.Outputs, out); err != nil {
		return err
	}
	ex.release(n)
	return nil
}

// execCombine merges branch results: the first present input wins (under
// execute-all, invalid results are "stripped" — only the taken path's
// value is forwarded by convention of input order set by Switch). The
// winner is forwarded, not copied, and accounted like Switch's arms.
func (ex *executor) execCombine(n *graph.Node) error {
	in, _ := ex.gatherInputs(n)
	var chosen *tensor.Tensor
	for i, t := range in {
		if t != nil && !ex.invalid[n.Inputs[i]] {
			chosen = t
			break
		}
	}
	if chosen == nil {
		// All branches invalid (should not happen): fall back to the
		// first materialized result.
		for _, t := range in {
			if t != nil {
				chosen = t
				break
			}
		}
	}
	if chosen == nil {
		return fmt.Errorf("exec: Combine %s has no live branch", n.Name)
	}
	ex.values[n.Outputs[0]] = chosen
	out := []*tensor.Tensor{chosen}
	ex.emit(n, in, out, false)
	if err := ex.account(n.Outputs, out); err != nil {
		return err
	}
	ex.release(n)
	return nil
}

func (ex *executor) execIf(n *graph.Node) error {
	in, allPresent := ex.gatherInputs(n)
	if !allPresent {
		ex.emit(n, nil, nil, true)
		ex.release(n)
		return nil
	}
	thenG := n.AttrGraph("then_branch")
	elseG := n.AttrGraph("else_branch")
	if thenG == nil || elseG == nil {
		return fmt.Errorf("exec: If %s missing branches", n.Name)
	}
	if len(in) == 0 {
		return fmt.Errorf("exec: If %s has no condition input", n.Name)
	}
	runBranch := func(body *graph.Graph) (*Result, error) {
		bindings := map[string]*tensor.Tensor{}
		for i, bin := range body.Inputs {
			if i+1 < len(in) && in[i+1] != nil {
				bindings[bin.Name] = in[i+1]
			}
		}
		return Run(body, bindings, ex.subOptions())
	}
	cond := truthy(in[0])
	var chosen *Result
	var err error
	if ex.opts.ExecuteAllBranches {
		thenRes, errT := runBranch(thenG)
		elseRes, errE := runBranch(elseG)
		if errT != nil {
			return errT
		}
		if errE != nil {
			return errE
		}
		ex.absorb(thenRes)
		ex.absorb(elseRes)
		if cond {
			chosen = thenRes
		} else {
			chosen = elseRes
		}
	} else {
		if cond {
			chosen, err = runBranch(thenG)
		} else {
			chosen, err = runBranch(elseG)
		}
		if err != nil {
			return err
		}
		ex.absorb(chosen)
	}
	body := thenG
	if !cond {
		body = elseG
	}
	outs := make([]*tensor.Tensor, len(n.Outputs))
	for i, name := range n.Outputs {
		if name == "" || i >= len(body.Outputs) {
			continue
		}
		outs[i] = chosen.Outputs[body.Outputs[i]]
		ex.values[name] = outs[i]
	}
	ex.emit(n, in, outs, false)
	if err := ex.account(n.Outputs, outs); err != nil {
		return err
	}
	ex.release(n)
	return nil
}

// absorb folds a subgraph run's trace into the parent's accounting.
func (ex *executor) absorb(r *Result) {
	ex.res.Trace.Events = append(ex.res.Trace.Events, r.Trace.Events...)
	ex.res.Trace.TotalAllocBytes += r.Trace.TotalAllocBytes
	ex.res.Trace.AllocCount += r.Trace.AllocCount
	if ex.liveBytes+r.Trace.PeakLiveBytes > ex.res.Trace.PeakLiveBytes {
		ex.res.Trace.PeakLiveBytes = ex.liveBytes + r.Trace.PeakLiveBytes
	}
}

func (ex *executor) execLoop(n *graph.Node) error {
	in, allPresent := ex.gatherInputs(n)
	if !allPresent {
		ex.emit(n, nil, nil, true)
		ex.release(n)
		return nil
	}
	body := n.AttrGraph("body")
	if body == nil {
		return fmt.Errorf("exec: Loop %s missing body", n.Name)
	}
	if len(in) < 2 {
		return fmt.Errorf("exec: Loop %s needs trip count and condition inputs, has %d inputs", n.Name, len(in))
	}
	if in[0] != nil && in[0].DType != tensor.Int64 {
		return fmt.Errorf("exec: Loop %s trip count is %s, want int64", n.Name, in[0].DType)
	}
	maxTrip := int64(1 << 30)
	if in[0] != nil && in[0].Len() > 0 {
		maxTrip = in[0].I[0]
	}
	cond := true
	if in[1] != nil {
		cond = truthy(in[1])
	}
	// A per-loop static trip bound tightens the global runaway guard to
	// the loop's own maximum; it never loosens LoopTripCap.
	limit := int64(LoopTripCap)
	if static := n.AttrInt("static_max_trip", 0); static > 0 && static < limit {
		limit = static
	}
	carried := make([]*tensor.Tensor, len(in)-2)
	copy(carried, in[2:])
	for iter := int64(0); iter < maxTrip && cond; iter++ {
		if iter >= limit {
			return fmt.Errorf("exec: Loop %s exceeded trip cap %d (trip count %d)", n.Name, limit, maxTrip)
		}
		if err := ex.checkCtx(n); err != nil {
			return err
		}
		bindings := map[string]*tensor.Tensor{}
		for i, bin := range body.Inputs {
			switch i {
			case 0:
				bindings[bin.Name] = tensor.ScalarInt(iter)
			case 1:
				bindings[bin.Name] = tensor.ScalarBool(cond)
			default:
				if i-2 < len(carried) {
					bindings[bin.Name] = carried[i-2]
				}
			}
		}
		r, err := Run(body, bindings, ex.subOptions())
		if err != nil {
			return err
		}
		ex.absorb(r)
		cond = truthy(r.Outputs[body.Outputs[0]])
		for i := range carried {
			if i+1 < len(body.Outputs) {
				carried[i] = r.Outputs[body.Outputs[i+1]]
			}
		}
	}
	outs := make([]*tensor.Tensor, len(n.Outputs))
	for i, name := range n.Outputs {
		if name == "" || i >= len(carried) {
			continue
		}
		outs[i] = carried[i]
		ex.values[name] = outs[i]
	}
	ex.emit(n, in, outs, false)
	if err := ex.account(n.Outputs, outs); err != nil {
		return err
	}
	ex.release(n)
	return nil
}
