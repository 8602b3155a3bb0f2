package frameworks

import (
	"sync"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/memplan"
	"repro/internal/remat"
	"repro/internal/workload"
)

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

func baselineGroupFn(fp *fusionPlanView) func(n *graph.Node) int {
	if fp == nil {
		return nil
	}
	return fp.groupOf
}

// fusionPlanView adapts a fusion plan for the cost model.
type fusionPlanView struct {
	nodeGroup map[*graph.Node]int
	internal  map[string]bool
}

func (f *fusionPlanView) groupOf(n *graph.Node) int {
	if gid, ok := f.nodeGroup[n]; ok {
		return gid
	}
	return -1
}

func staticFusionView(m *Compiled) *fusionPlanView {
	return &fusionPlanView{nodeGroup: m.FusionStatic.NodeGroup, internal: m.FusionStatic.Internal}
}

// ---- MNN -------------------------------------------------------------

// MNN models the static-solution policy (§2): full execution
// re-initialization whenever the input shape changes (Table 1's
// SL/ST/Alloc phases), static-only fusion, execute-all control flow, and
// a best-fit greedy memory plan rebuilt at each re-initialization.
type MNN struct {
	mu        sync.Mutex       // guards lastShape under concurrent Run
	lastShape map[string]int64 // model name → last shape key
	// CountReinit includes re-initialization in LatencyMS. The paper
	// isolates re-init in Table 1 and the Fig. 10 stability study but
	// reports steady-state inference in Tables 5/6.
	CountReinit bool
}

// NewMNN constructs the engine (steady-state latency reporting).
func NewMNN() *MNN { return &MNN{lastShape: map[string]int64{}} }

// NewMNNWithReinit constructs the engine with re-initialization counted
// in every shape-changing inference (Table 1 / Fig. 10 mode).
func NewMNNWithReinit() *MNN {
	return &MNN{lastShape: map[string]int64{}, CountReinit: true}
}

// Name identifies the engine.
func (e *MNN) Name() string { return "MNN" }

// Supports consults the paper's support matrix.
func (e *MNN) Supports(model string, _ costmodel.Device) bool { return supportMatrix["MNN"][model] }

// Reset clears the shape cache.
func (e *MNN) Reset() {
	e.mu.Lock()
	e.lastShape = map[string]int64{}
	e.mu.Unlock()
}

// shapeChanged atomically tests-and-sets the engine's last-seen shape.
func (e *MNN) shapeChanged(model string, key int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastShape[model] == key {
		return false
	}
	e.lastShape[model] = key
	return true
}

// Run executes one sample under MNN's policy.
func (e *MNN) Run(m *Compiled, sample workload.Sample, dev costmodel.Device) (Report, error) {
	res, err := m.Execute(sample, true, OrderTopo)
	if err != nil {
		return Report{}, err
	}
	tr := res.Trace
	phases := map[string]float64{}

	// Re-initialization on shape change.
	if e.shapeChanged(m.Builder.Name, sample.ShapeKey) {
		re := dev.Reinit(len(m.Graph.Nodes), tr.TotalAllocBytes)
		phases["reinit-sl"] = re.ShapeLayoutMS
		phases["reinit-st"] = re.ScheduleMS
		phases["reinit-alloc"] = re.AllocMS
	}

	fp := staticFusionView(m)
	opts := costmodel.TraceCostOptions{
		GroupOf: baselineGroupFn(fp),
		InternalBytes: func(ev exec.OpEvent) int64 {
			var b int64
			for i, name := range ev.OutNames {
				if name != "" && fp.internal[name] {
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
	prog := TraceProgram(m.Graph, tr, fp.internal)
	peak := memplan.BestFit(prog).ArenaSize
	phases["infer"] = dev.TraceCost(tr, opts) * dev.MemPressure(peak) / 1000

	total := phases["infer"]
	if e.CountReinit {
		total += phases["reinit-sl"] + phases["reinit-st"] + phases["reinit-alloc"]
	}
	return Report{LatencyMS: total, PeakMemBytes: peak, Phases: phases}, nil
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

// Reset is a no-op.
func (e *ORT) Reset() {}

// Run executes one sample under ORT's policy.
func (e *ORT) Run(m *Compiled, sample workload.Sample, dev costmodel.Device) (Report, error) {
	res, err := m.Execute(sample, true, OrderTopo)
	if err != nil {
		return Report{}, err
	}
	tr := res.Trace
	phases := map[string]float64{}

	// Runtime shape inference for every node, every inference.
	phases["shapefn"] = float64(len(m.Graph.Nodes)) * 1.5 / 1000
	// Dynamic allocation per intermediate.
	phases["malloc"] = float64(tr.AllocCount) * dev.MallocUS / 1000

	fp := staticFusionView(m)
	opts := costmodel.TraceCostOptions{
		GroupOf: baselineGroupFn(fp),
		Eff:     func(exec.OpEvent) float64 { return 1.0 },
	}
	prog := TraceProgram(m.Graph, tr, fp.internal)
	peak := poolSimArena(prog)
	phases["infer"] = dev.TraceCost(tr, opts) * dev.MemPressure(peak) / 1000

	var total float64
	for _, v := range phases {
		total += v
	}
	return Report{LatencyMS: total, PeakMemBytes: peak, Phases: phases}, nil
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

// Reset is a no-op.
func (e *TVMN) Reset() {}

// rpcBaseBytes is the Android-RPC application overhead (scaled to our
// model sizes; the real system's is hundreds of MB).
const rpcBaseBytes = int64(10) << 20

// Run executes one sample under Nimble's policy.
func (e *TVMN) Run(m *Compiled, sample workload.Sample, dev costmodel.Device) (Report, error) {
	res, err := m.Execute(sample, true, OrderTopo)
	if err != nil {
		return Report{}, err
	}
	tr := res.Trace
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

	var total float64
	for _, v := range phases {
		total += v
	}
	return Report{LatencyMS: total, PeakMemBytes: peak, Phases: phases}, nil
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
	mu          sync.Mutex // guards lastShape under concurrent Run
	lastShape   map[string]int64
}

// NewTFLite constructs the engine.
func NewTFLite(budget int64) *TFLite {
	return &TFLite{BudgetBytes: budget, lastShape: map[string]int64{}}
}

// Name identifies the engine.
func (e *TFLite) Name() string { return "TFLite" }

// Supports: fixed-path studies only.
func (e *TFLite) Supports(model string, _ costmodel.Device) bool {
	return supportMatrix["TFLite"][model]
}

// Reset clears the shape cache.
func (e *TFLite) Reset() {
	e.mu.Lock()
	e.lastShape = map[string]int64{}
	e.mu.Unlock()
}

// shapeChanged atomically tests-and-sets the engine's last-seen shape.
func (e *TFLite) shapeChanged(model string, key int64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.lastShape[model] == key {
		return false
	}
	e.lastShape[model] = key
	return true
}

// Run executes one sample under TFLite's policy.
func (e *TFLite) Run(m *Compiled, sample workload.Sample, dev costmodel.Device) (Report, error) {
	// Fixed execution path: predicated control flow with frozen gates.
	res, err := m.Execute(sample, false, OrderTopo)
	if err != nil {
		return Report{}, err
	}
	tr := res.Trace
	phases := map[string]float64{}
	if e.shapeChanged(m.Builder.Name, sample.ShapeKey) {
		re := dev.Reinit(len(m.Graph.Nodes), tr.TotalAllocBytes)
		phases["reinit-sl"] = re.ShapeLayoutMS
		phases["reinit-st"] = re.ScheduleMS
		phases["reinit-alloc"] = re.AllocMS
	}

	fp := staticFusionView(m)
	prog := TraceProgram(m.Graph, tr, fp.internal)
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
		peak = rp.PeakBytes
		if peak > e.BudgetBytes {
			peak = e.BudgetBytes // clamp: the allocator enforces the budget
		}
	}
	opts := costmodel.TraceCostOptions{
		GroupOf: baselineGroupFn(fp),
		Eff:     func(exec.OpEvent) float64 { return 1.2 },
	}
	phases["infer"] = dev.TraceCost(tr, opts) * dev.MemPressure(natural) / 1000 * rematFactor

	var total float64
	for _, v := range phases {
		total += v
	}
	return Report{LatencyMS: total, PeakMemBytes: peak, Phases: phases}, nil
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
