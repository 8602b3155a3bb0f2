// Package staticverify is the compile-time plan verifier and diagnostics
// subsystem: a symbolic-range analysis over the RDP fixed point that
// proves — once, for an entire *region* of input shapes — what the
// guarded runtime otherwise re-checks per concrete shape at serve time.
//
// Given a graph, its RDP analysis, the planned execution order, and a
// Region (strided intervals for the model's symbolic input dimensions,
// derived from the input sampling spec and analyzed facts), it
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
// unreachable If branches under range facts, constant-foldable nodes
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
// values it can take. It is the "for all shapes in ..." quantifier of
// every proof in this package: verdicts hold for exactly the
// environments whose symbol bindings are members of their intervals.
type Region map[string]symbolic.Interval

// RegionFromFacts converts analyzed input facts (ranges, divisibility)
// into a Region. Range and divisibility facts for the same symbol are
// intersected into one strided interval.
func RegionFromFacts(facts []guard.Fact) Region {
	r := Region{}
	for _, f := range facts {
		var iv symbolic.Interval
		switch f.Kind {
		case guard.FactDivisible:
			if f.Mod <= 0 {
				continue
			}
			// Representable alone only with range context; start from a
			// wide window and rely on intersection with the range fact.
			lo := f.Rem
			iv = symbolic.NewInterval(lo, lo+(1<<40)*f.Mod, f.Mod)
		default:
			iv = symbolic.NewInterval(f.Min, f.Max, 1)
		}
		if prev, ok := r[f.Symbol]; ok {
			iv = prev.Intersect(iv)
		}
		r[f.Symbol] = iv
	}
	return r
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
	// Waves, when non-nil, are the planned wavefront step ranges
	// (half-open, contiguous over Order) to certify for parallel
	// execution; nil skips the wavefront proof.
	Waves [][2]int
}

// Report is the complete result of one static verification run.
type Report struct {
	Model     string
	NodeCount int
	Region    Region
	Exec      ExecVerdict
	Mem       MemVerdict
	// Wave certifies the wavefront partition and its widened memory
	// plan for parallel execution (zero value when Input.Waves was nil).
	Wave WaveVerdict
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

	// 4. Wavefront proof: antichain partition + wave-widened memory
	// plan (only meaningful over a proven sequential plan and schedule).
	if in.Waves != nil {
		wave, waveDiags := ProveWavefronts(order, in.Waves, r.Mem)
		r.Wave = wave
		r.Diagnostics = append(r.Diagnostics, waveDiags...)
		if !r.Exec.Proven && r.Wave.Proven {
			r.Wave.Proven = false
			r.Wave.Reason = "execution plan not proven: " + r.Exec.Reason
			r.Wave.Layout = nil
		}
	}

	// 5. Graph lint.
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
