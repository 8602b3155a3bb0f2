// Package staticverify is the compile-time plan verifier and diagnostics
// subsystem: a symbolic-range analysis over the RDP fixed point that
// proves — once, for an entire *region* of input shapes — what the
// guarded runtime otherwise re-checks per concrete shape at serve time.
//
// Given a graph, its RDP analysis, the planned execution order, and a
// Region (strided intervals for the model's symbolic input dimensions,
// read off the model's declared input range), it
// establishes three results:
//
//   - Execution-plan proof: the SEP order schedules every node exactly
//     once and after all of its producers (shape-independent).
//   - Liveness proof: buffer lifetimes derived for the memory plan cover
//     every use of every value under the planned order.
//   - Memory-plan proof: a single region-wide arena plan, placed with
//     worst-case (interval upper bound) buffer sizes, is overlap-free for
//     *every* shape in the region — or an explicit "unprovable" verdict
//     naming the reason (unbounded symbol, possibly-negative dimension,
//     divisor that may be zero).
//
// A proven memory plan upgrades the serving path from shape-keyed to
// shape-family-keyed caching: any request whose input shapes bind inside
// the region is served with the pre-verified plan and skips contract and
// plan re-verification entirely (frameworks.Report.RegionCacheHit).
//
// The package also runs a structured graph lint pass (dead nodes,
// unreachable If branches under the region, constant-foldable nodes
// missed by internal/fold, contradictory symbolic constraints, ISVDOS
// operators fed by provably-constant values) whose output feeds the
// `sod2 lint` CLI and the golden-snapshot regression tests.
package staticverify

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/symbolic"
)

// Region maps each symbolic input dimension to the strided interval of
// values it can take. It is the one description of the inputs a model
// is compiled for: the "for all shapes in ..." quantifier of every proof
// in this package, and the serve-time test of every request. Verdicts
// hold for exactly the environments whose symbol bindings are members
// of their intervals.
type Region map[string]symbolic.Interval

// Symbols returns the region's symbols, sorted.
func (r Region) Symbols() []string {
	syms := make([]string, 0, len(r))
	for s := range r {
		syms = append(syms, s)
	}
	sort.Strings(syms)
	return syms
}

// Check tests a concrete symbol binding against the region: every
// region symbol must be bound to a member of its interval. The first
// symbol, in sorted order, that is unbound or outside its interval
// comes back as a KindFact *guard.ContractError quoting the interval
// the way `sod2 lint` prints it ("H∈[224,640]/32"). An empty region
// admits every binding: the proofs over it assumed nothing about any
// symbol (a fully static model), so they hold vacuously for all of
// them.
func (r Region) Check(env symbolic.Env) error {
	bad := ""
	for s, iv := range r {
		if v, ok := env[s]; (!ok || !iv.Contains(v)) && (bad == "" || s < bad) {
			bad = s
		}
	}
	if bad == "" {
		return nil
	}
	v, ok := env[bad]
	ce := &guard.ContractError{Kind: guard.KindFact, Symbol: bad, Fact: bad + "∈" + r[bad].String(), Value: v}
	if !ok {
		ce.Detail = "unbound"
	}
	return ce
}

// Severity ranks diagnostics.
type Severity uint8

// Severities, least to most severe.
const (
	Info Severity = iota
	Warn
	Error
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	default:
		return "error"
	}
}

// Diagnostic is one structured finding of the verifier or the lint pass.
type Diagnostic struct {
	// Code is the stable machine-readable finding class: "dead-node",
	// "unreachable-branch", "const-foldable", "contradiction",
	// "isvdos-const", "unbounded-symbol", "negative-dim", "schedule",
	// "lifetime".
	Code     string
	Severity Severity
	// Node names the offending node ("" for graph- or region-level
	// findings); Value names the offending tensor when applicable.
	Node  string
	Value string
	// Detail is the human-readable explanation.
	Detail string
}

// ExecVerdict is the outcome of the execution-plan proof.
type ExecVerdict struct {
	Proven bool
	Reason string // set when !Proven
}

// Input bundles everything the verifier analyzes. Order may be nil, in
// which case the graph's topological order is used.
type Input struct {
	Model  string
	Graph  *graph.Graph
	Infos  map[string]lattice.Info
	Order  []*graph.Node
	Region Region
}

// Report is the complete result of one static verification run.
type Report struct {
	Model     string
	NodeCount int
	Region    Region
	Exec      ExecVerdict
	Mem       MemVerdict
	// Liveness maps every value produced under the order to its static
	// [Birth, Death] step interval (the intervals the memory plan uses,
	// and the intervals the instrumented-execution property test checks).
	Liveness    map[string]LifeInterval
	Diagnostics []Diagnostic
}

// Errors counts Error-severity diagnostics.
func (r *Report) Errors() int {
	n := 0
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			n++
		}
	}
	return n
}

// Analyze runs the full verifier: execution-plan proof, liveness
// derivation and proof, symbolic memory-plan proof, and the graph lint
// pass. It never fails — unprovable properties come back as verdicts and
// diagnostics, not errors.
func Analyze(in Input) *Report {
	r := &Report{Model: in.Model, Region: in.Region}
	order := in.Order
	if order == nil {
		if sorted, err := in.Graph.TopoSort(); err == nil {
			order = sorted
		} else {
			order = in.Graph.Nodes
		}
	}
	r.NodeCount = len(order)

	// 1. Execution-plan proof (shape-independent).
	if err := guard.VerifyExecutionPlan(in.Graph, order); err != nil {
		r.Exec = ExecVerdict{Proven: false, Reason: err.Error()}
		r.Diagnostics = append(r.Diagnostics, Diagnostic{
			Code: "schedule", Severity: Error, Detail: err.Error()})
	} else {
		r.Exec = ExecVerdict{Proven: true}
	}

	// 2. Liveness intervals + def-use proof.
	live, liveDiags := Liveness(in.Graph, order)
	r.Liveness = live
	r.Diagnostics = append(r.Diagnostics, liveDiags...)

	// 3. Symbolic memory-plan proof over the region.
	verdict, memDiags := ProveMemory(in.Graph, in.Infos, order, in.Region, live)
	r.Mem = verdict
	r.Diagnostics = append(r.Diagnostics, memDiags...)
	if !r.Exec.Proven && r.Mem.Proven {
		// A memory plan over an invalid schedule is meaningless.
		r.Mem.Proven = false
		r.Mem.Reason = "execution plan not proven: " + r.Exec.Reason
		r.Mem.Plan, r.Mem.Layout = nil, nil
	}

	// 4. Graph lint.
	r.Diagnostics = append(r.Diagnostics, Lint(in.Graph, in.Infos, in.Region)...)

	sortDiagnostics(r.Diagnostics)
	return r
}

// sortDiagnostics orders findings deterministically by (node, code)
// first — so a golden diff groups every finding about one node together
// and reflects real changes only — then severity (most severe first),
// value, detail.
func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Value != b.Value {
			return a.Value < b.Value
		}
		return a.Detail < b.Detail
	})
}
