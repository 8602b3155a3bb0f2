// Package costmodel is the deterministic analytic device model that
// substitutes for the paper's Snapdragon 888 / 835 hardware (see
// DESIGN.md §2). Latency is derived from the *actual executed operator
// trace*: each operator contributes a roofline term (compute-bound or
// bandwidth-bound) plus a dispatch overhead, and each framework adds the
// overhead events its dynamic-DNN policy incurs (re-initialization,
// shape functions, dynamic allocation). The absolute numbers are not the
// paper's; the relative behaviour — who wins, by what factor — follows
// mechanistically from what each framework executes.
package costmodel

import (
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/kernels"
)

// Device is one profiled execution target.
type Device struct {
	Name string
	// GFlops is the effective peak throughput (multiply-adds counted as
	// two flops) for well-tuned float32 (CPU) / float16 (GPU) kernels.
	GFlops float64
	// MemGBps is the effective DRAM bandwidth.
	MemGBps float64
	// DispatchUS is the per-kernel launch/dispatch overhead in µs —
	// much larger on the GPU (command queue) than the CPU.
	DispatchUS float64
	// MallocUS is the cost of one dynamic buffer allocation.
	MallocUS float64
	// CacheBytes is the last-level cache size; working sets beyond it
	// pay a growing bandwidth penalty (the effect behind the paper's
	// growing speedups at larger inputs and on the weaker Snapdragon 835).
	CacheBytes int64
	// IsGPU selects GPU-specific policies (e.g. TVM-N unsupported).
	IsGPU bool
}

// MemPressure returns the latency multiplier for a working set of
// peakBytes: 1.0 while it fits the cache, growing once it spills.
func (d Device) MemPressure(peakBytes int64) float64 {
	if d.CacheBytes <= 0 || peakBytes <= d.CacheBytes {
		return 1.0
	}
	over := float64(peakBytes)/float64(d.CacheBytes) - 1
	f := 1 + 0.12*over
	if f > 2 {
		f = 2
	}
	return f
}

// The four evaluation targets (Snapdragon 888 and 835, CPU and GPU).
// Numbers approximate the public specs: Kryo 680 octa-core ≈ 1.4
// effective fp32 GFLOPS×8 threads; Adreno 660 ≈ 1.7 TFLOPS fp16;
// Snapdragon 835 roughly 2.5–3× weaker with a smaller cache system.
var (
	SD888CPU = Device{Name: "sd888-cpu", GFlops: 28, MemGBps: 18, DispatchUS: 2, MallocUS: 0.8, CacheBytes: 4 << 20}
	SD888GPU = Device{Name: "sd888-gpu", GFlops: 220, MemGBps: 28, DispatchUS: 18, MallocUS: 6, CacheBytes: 2 << 20, IsGPU: true}
	SD835CPU = Device{Name: "sd835-cpu", GFlops: 10, MemGBps: 8, DispatchUS: 3, MallocUS: 1.0, CacheBytes: 2 << 20, IsGPU: false}
	SD835GPU = Device{Name: "sd835-gpu", GFlops: 60, MemGBps: 12, DispatchUS: 24, MallocUS: 8, CacheBytes: 1500 << 10, IsGPU: true}
)

// DeviceByName resolves a device profile from its Name (the string the
// CLI flags and the artifact-store keys use).
func DeviceByName(name string) (Device, bool) {
	for _, d := range []Device{SD888CPU, SD888GPU, SD835CPU, SD835GPU} {
		if d.Name == name {
			return d, true
		}
	}
	return Device{}, false
}

// OpCost returns the roofline latency (µs) of one operator execution at
// kernel efficiency eff (1.0 = generic dynamic-shape kernel; tuned
// multi-version kernels reach >1).
func (d Device) OpCost(flops, bytes int64, eff float64) float64 {
	if eff <= 0 {
		eff = 1
	}
	compute := float64(flops) / (d.GFlops * 1e9) * 1e6 // µs
	memory := float64(bytes) / (d.MemGBps * 1e9) * 1e6
	t := compute
	if memory > t {
		t = memory
	}
	return t / eff
}

// EventCost computes the cost of one traced operator using the
// registry's per-op analytic flop/byte counts.
func (d Device) EventCost(ev exec.OpEvent, eff float64) float64 {
	if ev.Skipped {
		return 0
	}
	def, ok := kernels.Get(ev.OpType)
	var flops, bytes int64
	if ok {
		flops, bytes = def.Cost(ev.Node, ev.InShapes, ev.OutShapes)
	} else {
		flops, bytes = kernels.DefaultCost(ev.Node, ev.InShapes, ev.OutShapes)
	}
	return d.OpCost(flops, bytes, eff) + d.DispatchUS
}

// TraceCost sums the trace's operator costs with a per-node efficiency
// lookup (nil = 1.0 everywhere) and a per-group launch model: nodes in
// the same fused group share one dispatch, and fused-internal tensors do
// not pay the memory-traffic term (their producers stream directly into
// consumers).
type TraceCostOptions struct {
	// Eff returns the kernel efficiency multiplier for an executed op.
	Eff func(ev exec.OpEvent) float64
	// GroupOf returns a fused-group ID per node (-1 = unfused). Nodes
	// sharing a group pay one dispatch overhead total.
	GroupOf func(n *graph.Node) int
	// InternalBytes returns the executed op's output bytes that are
	// fused away and must be deducted from the roofline memory term.
	InternalBytes func(ev exec.OpEvent) int64
}

// TraceCost computes the total latency (µs) of an executed trace.
func (d Device) TraceCost(tr exec.Trace, opts TraceCostOptions) float64 {
	var total float64
	seenGroup := map[int]bool{}
	for _, ev := range tr.Events {
		if ev.Skipped {
			continue
		}
		def, ok := kernels.Get(ev.OpType)
		var flops, bytes int64
		if ok {
			flops, bytes = def.Cost(ev.Node, ev.InShapes, ev.OutShapes)
		} else {
			flops, bytes = kernels.DefaultCost(ev.Node, ev.InShapes, ev.OutShapes)
		}
		if opts.InternalBytes != nil {
			bytes -= opts.InternalBytes(ev)
			if bytes < 0 {
				bytes = 0
			}
		}
		eff := 1.0
		if opts.Eff != nil {
			eff = opts.Eff(ev)
		}
		total += d.OpCost(flops, bytes, eff)
		// Dispatch: once per fused group, per op otherwise.
		if opts.GroupOf != nil {
			gid := opts.GroupOf(ev.Node)
			if gid >= 0 {
				if !seenGroup[gid] {
					seenGroup[gid] = true
					total += d.DispatchUS
				}
				continue
			}
		}
		total += d.DispatchUS
	}
	return total
}

// ReinitPhases models the execution re-initialization a static framework
// performs when the input shape changes (Table 1's SL / ST / Alloc
// phases). Costs scale with graph size and allocated bytes; the GPU's
// schedule-and-tune and allocation phases are drastically more expensive
// (Table 1 shows 30,605 ms Alloc on GPU vs 22 ms on CPU for YOLOv6).
type ReinitPhases struct {
	ShapeLayoutMS float64
	ScheduleMS    float64
	AllocMS       float64
}

// Total sums the phases.
func (r ReinitPhases) Total() float64 {
	return r.ShapeLayoutMS + r.ScheduleMS + r.AllocMS
}

// Reinit computes the re-initialization cost for a graph of n operators
// allocating totalBytes of buffers.
func (d Device) Reinit(numOps int, totalBytes int64) ReinitPhases {
	p := ReinitPhases{}
	if d.IsGPU {
		// Kernel recompilation/tuning and buffer mapping dominate:
		// Table 1 shows GPU re-initialization 30–300× the inference.
		p.ShapeLayoutMS = 0.005 * float64(numOps)
		p.ScheduleMS = 0.12 * float64(numOps)
		p.AllocMS = float64(totalBytes) / 1e9 * 3000.0
	} else {
		// CPU re-initialization is the same order as the inference.
		p.ShapeLayoutMS = 0.004 * float64(numOps)
		p.ScheduleMS = float64(totalBytes)/1e9*250.0 + 0.01*float64(numOps)
		p.AllocMS = float64(totalBytes) / 1e9 * 80.0
	}
	return p
}

// ShapeFuncUS is TVM-Nimble's per-operator runtime shape-function cost.
func (d Device) ShapeFuncUS() float64 { return 3 }

// VMDispatchUS is the VM interpreter dispatch overhead per instruction.
func (d Device) VMDispatchUS() float64 { return 2 }
