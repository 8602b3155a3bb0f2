package bench

import (
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/memplan"
	"repro/internal/remat"
	"repro/internal/workload"
)

// Policy is the executor policy a trace is executed under: every
// control-flow branch or only the taken ones, in the given order.
type Policy struct {
	AllBranches bool
	Order       frameworks.OrderKind
}

// Engine is one execution framework of the evaluation, as a pricing
// policy over executed traces (DESIGN.md §2): it names the executor
// policy whose trace it prices and models latency and peak memory from
// that trace, executing nothing itself. An engine keeps per-model shape
// state and is used by one goroutine at a time.
type Engine interface {
	Name() string
	// Supports mirrors the paper's "-" cells (Table 5/6).
	Supports(model string, dev costmodel.Device) bool
	// Policy is the executor policy of the trace Price reads.
	Policy() Policy
	// Price models one sample's report from its executed trace.
	Price(m *frameworks.Compiled, s workload.Sample, tr exec.Trace, dev costmodel.Device) frameworks.Report
	// Reset clears shape caches (call between experiments).
	Reset()
}

// sod2Engine prices the SoD² variants with frameworks.SoD2.Model.
type sod2Engine struct{ *frameworks.SoD2 }

// NewSoD2 builds the SoD² engine with the given optimization set.
func NewSoD2(opts frameworks.SoD2Options) Engine { return sod2Engine{frameworks.NewSoD2(opts)} }

// Name identifies the engine (reflecting disabled optimizations).
func (e sod2Engine) Name() string {
	o := e.Opts
	if o.StaticFrozen {
		return "DNNFusion-static"
	}
	if o == frameworks.FullSoD2() {
		return "SoD2"
	}
	n := "SoD2[no-opt"
	if o.Fusion {
		n += "+Fusion"
	}
	if o.SEP {
		n += "+SEP"
	}
	if o.DMP {
		n += "+DMP"
	}
	if o.MVC {
		n += "+MVC"
	}
	return n + "]"
}

// Supports: SoD² runs every model on every device.
func (sod2Engine) Supports(string, costmodel.Device) bool { return true }

// Policy is frameworks.SoD2's own, so the harness prices the trace
// SoD2.Run executes.
func (e sod2Engine) Policy() Policy {
	all, order := e.ExecPolicy()
	return Policy{AllBranches: all, Order: order}
}

// Price applies SoD²'s cost model to the trace.
func (e sod2Engine) Price(m *frameworks.Compiled, _ workload.Sample, tr exec.Trace, dev costmodel.Device) frameworks.Report {
	return e.Model(m, tr, dev)
}

// Reset is a no-op: the engine keeps no per-shape state.
func (sod2Engine) Reset() {}

// supportMatrix mirrors the "-" cells of Tables 5/6: which baseline can
// run which model (missing operators / optimization limits in the real
// frameworks).
var supportMatrix = map[string]map[string]bool{
	"ORT": {
		"StableDiffusion": true, "CodeBERT": true, "YOLO-V6": true,
		"SkipNet": true, "DGNet": true, "ConvNet-AIG": true,
		"RaNet": true, "BlockDrop": true,
		// SegmentAnything and Conformer unsupported (missing ops).
	},
	"MNN": {
		"StableDiffusion": true, "Conformer": true, "CodeBERT": true,
		"YOLO-V6": true, "SkipNet": true, "DGNet": true,
		"ConvNet-AIG": true, "RaNet": true, "BlockDrop": true,
	},
	"TVM-N": {
		"YOLO-V6": true, "SkipNet": true, "ConvNet-AIG": true, "BlockDrop": true,
	},
	"TFLite": {
		"SkipNet": true, "RaNet": true, "YOLO-V6": true,
		"ConvNet-AIG": true, "BlockDrop": true, "DGNet": true,
	},
}

// executeAll is the baselines' control-flow policy (§2): every branch,
// in declaration order.
var executeAll = Policy{AllBranches: true, Order: frameworks.OrderTopo}

// shapeCache is a static framework's last-initialized input shape per
// model: a run at any other shape re-initializes the execution.
type shapeCache map[string]int64

// reinit adds the re-initialization phases (Table 1's SL/ST/Alloc) to
// phases when s's shape is not the one m last ran at, and records it.
func (c shapeCache) reinit(phases map[string]float64, m *frameworks.Compiled, s workload.Sample, tr exec.Trace, dev costmodel.Device) {
	if c[m.Builder.Name] == s.ShapeKey {
		return
	}
	c[m.Builder.Name] = s.ShapeKey
	re := dev.Reinit(len(m.Graph.Nodes), tr.TotalAllocBytes)
	phases["reinit-sl"] = re.ShapeLayoutMS
	phases["reinit-st"] = re.ScheduleMS
	phases["reinit-alloc"] = re.AllocMS
}

// sum totals a report's phases.
func sum(phases map[string]float64) float64 {
	var total float64
	for _, v := range phases {
		total += v
	}
	return total
}

// ---- MNN -------------------------------------------------------------

// MNN models the static-solution policy (§2): full execution
// re-initialization whenever the input shape changes (Table 1's
// SL/ST/Alloc phases), static-only fusion, execute-all control flow, and
// a best-fit greedy memory plan rebuilt at each re-initialization.
type MNN struct {
	last shapeCache
	// CountReinit includes re-initialization in LatencyMS. The paper
	// isolates re-init in Table 1 and the Fig. 10 stability study but
	// reports steady-state inference in Tables 5/6.
	CountReinit bool
}

// NewMNN constructs the engine (steady-state latency reporting).
func NewMNN() *MNN { return &MNN{last: shapeCache{}} }

// NewMNNWithReinit constructs the engine with re-initialization counted
// in every shape-changing inference (Table 1 / Fig. 10 mode).
func NewMNNWithReinit() *MNN { return &MNN{last: shapeCache{}, CountReinit: true} }

// Name identifies the engine.
func (e *MNN) Name() string { return "MNN" }

// Supports consults the paper's support matrix.
func (e *MNN) Supports(model string, _ costmodel.Device) bool { return supportMatrix["MNN"][model] }

// Policy executes every branch in declaration order.
func (e *MNN) Policy() Policy { return executeAll }

// Reset clears the shape cache.
func (e *MNN) Reset() { clear(e.last) }

// Price models one sample under MNN's policy.
func (e *MNN) Price(m *frameworks.Compiled, s workload.Sample, tr exec.Trace, dev costmodel.Device) frameworks.Report {
	phases := map[string]float64{}
	e.last.reinit(phases, m, s, tr, dev)

	fp := m.FusionStatic()
	opts := costmodel.TraceCostOptions{
		GroupOf: fp.GroupOf,
		InternalBytes: func(ev exec.OpEvent) int64 {
			var b int64
			for i, name := range ev.OutNames {
				if name != "" && fp.Internal[name] {
					b += ev.OutBytes[i]
				}
			}
			return b
		},
		// After re-initialization MNN's hotspot kernels are
		// shape-specialized (its multi-version codes, §4.4.2).
		Eff: func(ev exec.OpEvent) float64 {
			switch ev.OpType {
			case "Conv", "MatMul", "Gemm":
				return 1.3
			}
			return 1.0
		},
	}
	prog := frameworks.TraceProgram(m.Graph, tr, fp.Internal)
	peak := memplan.BestFit(prog).ArenaSize
	phases["infer"] = dev.TraceCost(tr, opts) * dev.MemPressure(peak) / 1000

	total := phases["infer"]
	if e.CountReinit {
		total += phases["reinit-sl"] + phases["reinit-st"] + phases["reinit-alloc"]
	}
	return frameworks.Report{LatencyMS: total, PeakMemBytes: peak, Phases: phases}
}

// ---- ONNX Runtime ------------------------------------------------------

// ORT models ONNX Runtime: no re-initialization, but per-inference
// runtime shape inference, per-tensor dynamic allocation through a
// BFC-style caching arena (which fragments under changing shapes), and
// static-only fusion with generic dynamic-shape kernels.
type ORT struct{}

// NewORT constructs the engine.
func NewORT() *ORT { return &ORT{} }

// Name identifies the engine.
func (e *ORT) Name() string { return "ORT" }

// Supports consults the support matrix.
func (e *ORT) Supports(model string, _ costmodel.Device) bool { return supportMatrix["ORT"][model] }

// Policy executes every branch in declaration order.
func (e *ORT) Policy() Policy { return executeAll }

// Reset is a no-op.
func (e *ORT) Reset() {}

// Price models one sample under ORT's policy.
func (e *ORT) Price(m *frameworks.Compiled, _ workload.Sample, tr exec.Trace, dev costmodel.Device) frameworks.Report {
	phases := map[string]float64{}
	// Runtime shape inference for every node, every inference.
	phases["shapefn"] = float64(len(m.Graph.Nodes)) * 1.5 / 1000
	// Dynamic allocation per intermediate.
	phases["malloc"] = float64(tr.AllocCount) * dev.MallocUS / 1000

	fp := m.FusionStatic()
	opts := costmodel.TraceCostOptions{
		GroupOf: fp.GroupOf,
		Eff:     func(exec.OpEvent) float64 { return 1.0 },
	}
	peak := memplan.PoolArena(frameworks.TraceProgram(m.Graph, tr, fp.Internal))
	phases["infer"] = dev.TraceCost(tr, opts) * dev.MemPressure(peak) / 1000
	return frameworks.Report{LatencyMS: sum(phases), PeakMemBytes: peak, Phases: phases}
}

// ---- TVM + Nimble ------------------------------------------------------

// TVMN models TVM's Nimble extension: a VM interpreter that calls a
// shape function before each operator, allocates every tensor
// dynamically, cannot fuse across dynamic shapes, and (per the paper)
// runs as its own RPC application with a fixed resident footprint; it
// does not support dynamic models on the mobile GPU.
type TVMN struct{}

// NewTVMN constructs the engine.
func NewTVMN() *TVMN { return &TVMN{} }

// Name identifies the engine.
func (e *TVMN) Name() string { return "TVM-N" }

// Supports: CPU only, and only the models the paper could run.
func (e *TVMN) Supports(model string, dev costmodel.Device) bool {
	return !dev.IsGPU && supportMatrix["TVM-N"][model]
}

// Policy executes every branch in declaration order.
func (e *TVMN) Policy() Policy { return executeAll }

// Reset is a no-op.
func (e *TVMN) Reset() {}

// rpcBaseBytes is the Android-RPC application overhead (scaled to our
// model sizes; the real system's is hundreds of MB).
const rpcBaseBytes = int64(10) << 20

// Price models one sample under Nimble's policy.
func (e *TVMN) Price(m *frameworks.Compiled, _ workload.Sample, tr exec.Trace, dev costmodel.Device) frameworks.Report {
	phases := map[string]float64{}
	n := float64(len(m.Graph.Nodes))
	phases["shapefn"] = n * dev.ShapeFuncUS() / 1000
	phases["vm-dispatch"] = n * dev.VMDispatchUS() / 1000
	phases["malloc"] = float64(tr.AllocCount) * dev.MallocUS / 1000

	opts := costmodel.TraceCostOptions{
		// No fusion across dynamic shapes, but TVM's generated kernels
		// are respectable.
		Eff: func(exec.OpEvent) float64 { return 0.95 },
	}
	// Dynamic allocation with GC-deferred frees: the high-watermark is
	// the total allocated bytes (nothing is returned until the end of the
	// inference), plus the RPC app footprint. Cache pressure follows the
	// kernels' actual working set (live bytes), not the watermark.
	peak := tr.TotalAllocBytes + rpcBaseBytes
	// Deferred frees mean the touched footprint sits between the live
	// set and the full watermark.
	phases["infer"] = dev.TraceCost(tr, opts) * dev.MemPressure((tr.PeakLiveBytes+tr.TotalAllocBytes)/2) / 1000
	return frameworks.Report{LatencyMS: sum(phases), PeakMemBytes: peak, Phases: phases}
}

// ---- TensorFlow Lite ----------------------------------------------------

// TFLite models TFLite's fixed-shape execution: re-initialization on any
// shape change, no dynamic control flow (it only runs the Fig. 11/12
// fixed-input studies), and — for Fig. 11 — an XLA-style
// rematerialization policy when constrained to a memory budget: tensors
// that do not fit are recomputed, trading latency for memory.
type TFLite struct {
	// BudgetBytes caps memory (0 = uncapped).
	BudgetBytes int64
	last        shapeCache
}

// NewTFLite constructs the engine.
func NewTFLite(budget int64) *TFLite { return &TFLite{BudgetBytes: budget, last: shapeCache{}} }

// Name identifies the engine.
func (e *TFLite) Name() string { return "TFLite" }

// Supports: fixed-path studies only.
func (e *TFLite) Supports(model string, _ costmodel.Device) bool {
	return supportMatrix["TFLite"][model]
}

// Policy: a fixed execution path, predicated control flow with frozen
// gates, in declaration order.
func (e *TFLite) Policy() Policy { return Policy{Order: frameworks.OrderTopo} }

// Reset clears the shape cache.
func (e *TFLite) Reset() { clear(e.last) }

// Price models one sample under TFLite's policy.
func (e *TFLite) Price(m *frameworks.Compiled, s workload.Sample, tr exec.Trace, dev costmodel.Device) frameworks.Report {
	phases := map[string]float64{}
	e.last.reinit(phases, m, s, tr, dev)

	fp := m.FusionStatic()
	prog := frameworks.TraceProgram(m.Graph, tr, fp.Internal)
	natural := memplan.BestFit(prog).ArenaSize
	peak := natural
	rematFactor := 1.0
	if e.BudgetBytes > 0 && natural > e.BudgetBytes {
		// XLA-style rematerialization: evict and recompute intermediates
		// until the budget is met. Recompute candidates come from the
		// real trace — each buffer's cost is its producing operator's.
		// Re-materializing is far more expensive on the GPU, where
		// intermediate tensors round-trip through memory mapping (§5.4).
		gpuPenalty := 1.0
		if dev.IsGPU {
			gpuPenalty = 3.0
		}
		cands := rematCandidates(tr, prog, dev, gpuPenalty)
		rp := remat.PlanBudget(prog, e.BudgetBytes, cands)
		baseUS := dev.TraceCost(tr, costmodel.TraceCostOptions{})
		rematFactor = rp.LatencyFactor(baseUS)
		if !rp.Feasible {
			// Rematerialization alone cannot reach the budget (the peak
			// is operator inputs+outputs that must coexist): the
			// residual working set pages through the OS, at memory-
			// mapping cost on the GPU.
			over := float64(rp.PeakBytes)/float64(e.BudgetBytes) - 1
			rematFactor *= 1 + 0.4*gpuPenalty*over
		}
		peak = min(rp.PeakBytes, e.BudgetBytes) // the allocator enforces the budget
	}
	opts := costmodel.TraceCostOptions{
		GroupOf: fp.GroupOf,
		Eff:     func(exec.OpEvent) float64 { return 1.2 },
	}
	phases["infer"] = dev.TraceCost(tr, opts) * dev.MemPressure(natural) / 1000 * rematFactor
	return frameworks.Report{LatencyMS: sum(phases), PeakMemBytes: peak, Phases: phases}
}

// rematCandidates derives eviction candidates from a trace: each
// buffer's recompute cost is its producing operator's cost on dev, and
// its use set is approximated by its last-use step.
func rematCandidates(tr exec.Trace, prog *memplan.Program, dev costmodel.Device, penalty float64) []remat.Candidate {
	costByName := map[string]float64{}
	for _, ev := range tr.Events {
		if ev.Skipped {
			continue
		}
		c := dev.EventCost(ev, 1) * penalty
		for _, name := range ev.OutNames {
			if name != "" {
				costByName[name] = c
			}
		}
	}
	var out []remat.Candidate
	for _, b := range prog.Bufs {
		if b.Size == 0 || b.Death <= b.Birth {
			continue
		}
		cost, ok := costByName[b.Name]
		if !ok {
			continue
		}
		out = append(out, remat.Candidate{
			Name: b.Name, Size: b.Size, RecomputeCost: cost, Uses: []int{b.Death},
		})
	}
	return out
}
