// Package sod2 is the public facade of this repository's reproduction of
// "SoD²: Statically Optimizing Dynamic Deep Neural Network Execution"
// (Niu, Agrawal, Ren — ASPLOS 2024). It exposes the complete pipeline:
//
//	model := sod2.BuildModel("CodeBERT")          // or assemble a Graph
//	compiled, _ := sod2.Compile(model)            // RDP → fusion → SEP → DMP
//	report, _ := compiled.Infer(inputs)           // execute; measured latency + memory
//
// Underneath sit the subsystems the paper describes, each usable on its
// own through this package:
//
//   - Analyze: the RDP data-flow analysis (§4.1) over a computational graph.
//   - Fuse: RDP-enabled operator fusion (§4.2).
//   - PlanExecution: static execution-order planning (§4.3).
//
// The `internal/` packages carry the implementations; examples/ and
// cmd/ demonstrate the API end to end.
package sod2

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/resilience"
	"repro/internal/staticverify"
	"repro/internal/symbolic"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Re-exported core types so callers need only this package for the
// common pipeline.
type (
	// Graph is the extended computational-graph IR (ONNX-style ops plus
	// the <Switch, Combine> control-flow pair).
	Graph = graph.Graph
	// Node is one operator application.
	Node = graph.Node
	// Tensor is a dense runtime tensor.
	Tensor = tensor.Tensor
	// Shape is the RDP lattice shape (known/symbolic/op-inferred/⊥ dims).
	Shape = lattice.Shape
	// Info pairs a tensor's lattice shape and tracked value.
	Info = lattice.Info
	// Expr is a canonical symbolic integer expression.
	Expr = symbolic.Expr
	// Env binds symbolic dimensions to concrete extents.
	Env = symbolic.Env
	// Report describes one inference: how it ran (tier, degradations,
	// cache hits) and its latency and peak memory — measured on this
	// host when Infer or a Session returns it, modeled when an
	// evaluation engine does.
	Report = frameworks.Report
	// Sample is one concrete workload input.
	Sample = workload.Sample
	// ModelBuilder describes one of the ten evaluation models.
	ModelBuilder = models.Builder
	// InputSpec declares one input of a ModelBuilder's sample: name,
	// dtype, shape, and how its values are drawn.
	InputSpec = models.InputSpec

	// GuardOptions configure a guarded inference (context, intra-op
	// thread budget, fault-injection hooks, forced dynamic tier, drift
	// check).
	GuardOptions = frameworks.GuardOptions
	// GuardReport describes how a guarded inference actually ran.
	GuardReport = frameworks.GuardReport
	// OpError is a structured per-kernel failure (panic or kernel error)
	// carrying the node, op type, and input shapes.
	OpError = guard.OpError
	// ContractError is a structured runtime-contract violation.
	ContractError = guard.ContractError
	// Degradation records one guarded-execution fallback.
	Degradation = guard.Degradation
	// Tier identifies an execution tier (planned / dynamic / float32).
	Tier = guard.Tier

	// DType is a tensor element/storage type, including the packed
	// quantized format Int8.
	DType = tensor.DType
	// QuantConfig selects weight-only quantized storage for a compile
	// (SchedConfig.Quant).
	QuantConfig = frameworks.QuantConfig
	// QuantReport describes the quantization pass a compile applied.
	QuantReport = frameworks.QuantReport
	// QuantBudget is a model's accuracy-drift contract for quantized
	// serving.
	QuantBudget = guard.QuantBudget

	// VerifyReport is the static plan verifier's result: execution-plan,
	// liveness, and region-wide memory-plan proofs plus lint diagnostics.
	VerifyReport = staticverify.Report
	// Diagnostic is one structured lint/verifier finding.
	Diagnostic = staticverify.Diagnostic
	// ShapeRegion maps symbolic input dims to their analyzed strided
	// intervals — the set of shapes a static proof covers.
	ShapeRegion = staticverify.Region

	// AdmissionConfig bounds a session's concurrent work (semaphore +
	// bounded queue); past capacity, requests shed with ErrOverloaded
	// instead of queueing unboundedly.
	AdmissionConfig = resilience.AdmissionConfig
	// RetryPolicy is the bounded, fallback-tier-aware retry/backoff
	// ladder a session applies to transient execution faults.
	RetryPolicy = resilience.RetryPolicy
	// HealthState is a model's serving health as judged by the breaker.
	HealthState = resilience.HealthState
	// OverloadError is one shed request (errors.Is(err, ErrOverloaded)).
	OverloadError = resilience.OverloadError
	// AdmissionStats / BreakerStats snapshot the resilience layer.
	AdmissionStats = resilience.AdmissionStats
	BreakerStats   = resilience.BreakerStats
)

// Health states of the serving state machine, in healing order.
const (
	Healthy     = resilience.Healthy
	Degraded    = resilience.Degraded
	Quarantined = resilience.Quarantined
	Probation   = resilience.Probation
)

// Execution tiers, fault sentinels, and hook points re-exported for
// error handling with errors.Is/As.
var (
	TierPlanned = guard.TierPlanned
	TierDynamic = guard.TierDynamic
	// TierFloat32 serves a request with the original float32 weights
	// after a quantized run violated its accuracy-drift contract.
	TierFloat32 = guard.TierFloat32
	// ErrPanic marks a contained kernel panic (wrapped in *OpError).
	ErrPanic = guard.ErrPanic
	// ErrContract matches any ContractError.
	ErrContract = guard.ErrContract
	// ErrArenaExhausted is the out-of-memory sentinel an allocation hook
	// returns (the fault injector's OOM mode); it is an arena fault, so a
	// planned run that hits it descends to dynamic allocation.
	ErrArenaExhausted = exec.ErrArenaExhausted
	// ErrOverloaded matches any admission shed (errors.Is).
	ErrOverloaded = resilience.ErrOverloaded
)

// Tensor storage formats, including the int8 weight format.
const (
	Float32 = tensor.Float32
	Int8    = tensor.Int8
)

// NodeAttr is a node attribute value.
type NodeAttr = graph.AttrValue

// Attribute constructors, re-exported for graph building.
var (
	IntAttr    = graph.IntAttr
	IntsAttr   = graph.IntsAttr
	FloatAttr  = graph.FloatAttr
	StringAttr = graph.StringAttr
	GraphAttr  = graph.GraphAttr
)

// NewGraph creates an empty computational graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// ReadGraphJSON deserializes a graph written with Graph.WriteJSON.
var ReadGraphJSON = graph.ReadJSON

// Models lists the ten dynamic models of the evaluation (Table 5).
func Models() []*ModelBuilder { return models.All() }

// BuildModel constructs one of the named evaluation models.
func BuildModel(name string) (*ModelBuilder, error) {
	b, ok := models.Get(name)
	if !ok {
		return nil, fmt.Errorf("sod2: unknown model %q", name)
	}
	return b, nil
}

// AnalyzeResult is the RDP fixed point plus reporting helpers.
type AnalyzeResult = rdp.Result

// Analyze runs Rank and Dimension Propagation over g. Overrides may pin
// the shapes of inputs (or, per Fig. 3(b), outputs) by value name.
func Analyze(g *Graph, overrides map[string]Shape) (*AnalyzeResult, error) {
	return rdp.Analyze(g, overrides, rdp.Options{})
}

// FusionPlan is an operator fusion plan.
type FusionPlan = fusion.Plan

// Fuse computes RDP-enabled fusion over an analyzed graph.
func Fuse(g *Graph, infos map[string]Info) *FusionPlan {
	return fusion.Fuse(g, infos, fusion.RDP)
}

// ExecutionPlan is a static execution-order plan.
type ExecutionPlan = plan.Plan

// PlanExecution computes the memory-minimizing operator order (§4.3).
func PlanExecution(g *Graph, infos map[string]Info, fp *FusionPlan) (*ExecutionPlan, error) {
	return plan.Build(g, infos, plan.Options{Fusion: fp})
}

// Compiled is a fully compiled model: RDP results, fusion plan,
// execution plan, and the input region its proofs and entry check
// quantify over.
type Compiled struct {
	inner *frameworks.Compiled
}

// Compile runs the full SoD² pre-deployment pipeline on a model: the
// compile every serving path shares, which folds each MatMul's and
// Conv's scale, bias and activation into it before the analyses run.
func Compile(b *ModelBuilder) (*Compiled, error) {
	c, err := frameworks.CompileServing(b, SchedConfig{})
	if err != nil {
		return nil, err
	}
	return &Compiled{inner: c}, nil
}

// SchedConfig configures a compile: weight quantization. Every compile
// serves the memory-minimal SEP order of the graph as built; no field
// selects a schedule.
type SchedConfig = frameworks.SchedConfig

// CompileVerifiedSched is CompileVerified with an explicit compile
// configuration.
func CompileVerifiedSched(b *ModelBuilder, cfg SchedConfig) (*Compiled, *VerifyReport, error) {
	c, rep, err := frameworks.CompileVerifiedSched(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	return &Compiled{inner: c}, rep, nil
}

// CompileVerified is Compile plus the static plan verifier. When the
// verifier proves the memory plan over the model's whole input region,
// every subsequent inference whose input shapes fall inside the region
// is served with the proven shape-family plan, fitted to its shapes, and
// skips per-shape contract checks (Report.RegionCacheHit) — even for
// shapes never seen before. Compile serves the same way (its first
// inference runs the verifier); CompileVerified runs it up front and
// hands back the report. Requests of an unprovable model run with
// dynamic allocation; the report's diagnostics record why.
func CompileVerified(b *ModelBuilder) (*Compiled, *VerifyReport, error) {
	c, rep, err := frameworks.CompileVerified(b)
	if err != nil {
		return nil, nil, err
	}
	return &Compiled{inner: c}, rep, nil
}

// Verify runs (and memoizes) the static plan verifier over the compiled
// model, enabling the shape-family serving path when the proofs succeed.
func (c *Compiled) Verify() *VerifyReport { return c.inner.Verify() }

// Quant reports the weight-quantization pass this compile applied, or
// nil for a float32 compile.
func (c *Compiled) Quant() *QuantReport { return c.inner.Quant }

// WeightBytes sums the storage of every model weight as compiled
// (packed bytes for quantized weights, including scale/min tables).
func (c *Compiled) WeightBytes() int64 { return c.inner.WeightBytes() }

// FamilyKey returns the shape-family key of one concrete input set: the
// statically proven region key when the inputs bind inside the verified
// region, the concrete input shapes otherwise, or "" for inputs that do
// not name every graph input. No serving path calls it (the HTTP server
// serves every request on its own); it stays declared only until the
// wall-clock benchmark's next revision stops reading it.
func (c *Compiled) FamilyKey(inputs map[string]*Tensor) (string, bool) {
	return c.inner.FamilyKey(inputs)
}

// Graph returns the compiled model's graph.
func (c *Compiled) Graph() *Graph { return c.inner.Graph }

// Analysis returns the RDP fixed point.
func (c *Compiled) Analysis() *AnalyzeResult { return c.inner.RDPResult }

// Fusion returns the RDP fusion plan.
func (c *Compiled) Fusion() *FusionPlan { return c.inner.FusionRDP }

// Execution returns the static execution plan.
func (c *Compiled) Execution() *ExecutionPlan { return c.inner.ExecPlan }

// Infer executes one set of concrete inputs, guarded: inputs are checked
// against the model's runtime contract, kernel panics surface as
// *OpError, and contract violations degrade to dynamic allocation
// instead of failing (the report records the fallback tier and every
// degradation taken). Nothing in the report is modeled: LatencyMS is the
// guarded run's wall-clock time on this host, and PeakMemBytes the
// arena's high water on the planned tier, the peak live intermediate
// bytes on any other.
func (c *Compiled) Infer(inputs map[string]*Tensor) (map[string]*Tensor, Report, error) {
	return c.infer(inputs, GuardOptions{})
}

// infer is the shared guarded-inference path: one timed guarded run,
// reported through its guard verdicts.
func (c *Compiled) infer(inputs map[string]*Tensor, gopts GuardOptions) (map[string]*Tensor, Report, error) {
	start := time.Now()
	res, gr, err := c.inner.GuardedRun(inputs, gopts)
	if err != nil {
		return nil, Report{FallbackTier: gr.Tier, Degradations: gr.Degradations}, err
	}
	rep := Report{
		LatencyMS:      float64(time.Since(start).Nanoseconds()) / 1e6,
		PeakMemBytes:   res.Trace.PeakLiveBytes,
		FallbackTier:   gr.Tier,
		Degradations:   gr.Degradations,
		RegionCacheHit: gr.RegionCacheHit,
	}
	if gr.Tier == TierPlanned {
		rep.PeakMemBytes = gr.ArenaHighWater
	}
	return res.Outputs, rep, nil
}

// InferGuarded executes with explicit guard options (context, intra-op
// thread budget, fault-injection hooks).
func (c *Compiled) InferGuarded(inputs map[string]*Tensor, opts GuardOptions) (map[string]*Tensor, Report, error) {
	return c.infer(inputs, opts)
}

// Contract returns the model's runtime contract — the symbolic input
// shapes and the RDP fixed point a request is bound against — for
// inspection. The input region a binding must lie in is the verifier
// report's Region (CompileVerified).
func (c *Compiled) Contract() *guard.Contract { return c.inner.Contract() }

// NewSample builds a workload sample for one of the evaluation models.
func NewSample(b *ModelBuilder, size int64, gateBias float32, seed uint64) Sample {
	return workload.Fixed(b, 1, size, gateBias, seed)[0]
}

// RunGraph executes an arbitrary graph directly (topological order, no
// compilation) — the quickest way to evaluate a hand-built graph.
func RunGraph(g *Graph, inputs map[string]*Tensor) (map[string]*Tensor, error) {
	res, err := exec.Run(g, inputs, exec.Options{})
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}
