package frameworks

import (
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/guard"
	"repro/internal/memplan"
	"repro/internal/workload"
)

// SoD2Options toggle the RDP-enabled optimizations individually (the
// Fig. 5/6 breakdown: No-opt → +Fusion → +SEP → +DMP → +MVC) plus the
// execute-all-branches mode of Fig. 9.
type SoD2Options struct {
	Fusion bool
	SEP    bool
	DMP    bool
	MVC    bool
	// ExecuteAllBranches disables <Switch, Combine> predication
	// (apples-to-apples comparison of Fig. 9).
	ExecuteAllBranches bool
	// StaticFrozen models the DNNFusion static baseline of Fig. 12:
	// everything known at compile time — no dynamic-planning overhead at
	// runtime and a slightly deeper fusion search.
	StaticFrozen bool
}

// FullSoD2 enables every optimization.
func FullSoD2() SoD2Options { return SoD2Options{Fusion: true, SEP: true, DMP: true, MVC: true} }

// SoD2 is the paper's system.
type SoD2 struct {
	Opts SoD2Options
}

// NewSoD2 builds the engine with the given optimization set.
func NewSoD2(opts SoD2Options) *SoD2 { return &SoD2{Opts: opts} }

// ExecPolicy is the executor policy whose trace the configured
// optimization set is priced over: the planned order with SEP, the
// breadth-first one without, every branch only with ExecuteAllBranches.
// Run executes under it, and so does the experiment harness.
func (s *SoD2) ExecPolicy() (allBranches bool, order OrderKind) {
	order = OrderBFS
	if s.Opts.SEP {
		order = OrderPlanned
	}
	return s.Opts.ExecuteAllBranches, order
}

// Run executes one sample under the configured optimization set (one
// Execute, never reused) and models its report from the executed trace.
func (s *SoD2) Run(m *Compiled, sample workload.Sample, dev costmodel.Device) (Report, error) {
	allBranches, kind := s.ExecPolicy()
	res, err := m.Execute(sample, allBranches, kind)
	var degradations []guard.Degradation
	fallbackTier := guard.TierPlanned
	if err != nil && kind == OrderPlanned {
		// The planned schedule failed (a corrupted or stale plan): fall
		// back to declaration order, which is always a valid schedule,
		// and record the degradation rather than failing the inference.
		res, err = m.Execute(sample, allBranches, OrderTopo)
		if err == nil {
			fallbackTier = guard.TierDynamic
			degradations = append(degradations, guard.Degradation{
				Reason: "planned order failed; re-ran in declaration order",
				Kind:   guard.KindExecPlan,
				From:   guard.TierPlanned, To: guard.TierDynamic,
			})
		}
	}
	if err != nil {
		return Report{}, err
	}
	rep := s.Model(m, res.Trace, dev)
	rep.FallbackTier = fallbackTier
	rep.Degradations = degradations
	return rep, nil
}

// Model applies the cost model to an executed trace: latency from the
// device model over the trace's events, peak memory from the configured
// allocator policy over the same events. It executes nothing and reads
// only shapes, names and byte sizes from the trace, so the trace of any
// observed run of m serves — an Execute, the experiment harness's kept
// traces, or a guarded run with exec.Hooks attached. The report carries no tier
// or degradations, which belong to whoever executed the trace.
func (s *SoD2) Model(m *Compiled, tr exec.Trace, dev costmodel.Device) Report {

	// --- Latency -----------------------------------------------------
	opts := costmodel.TraceCostOptions{}
	internal := map[string]bool{}
	if s.Opts.Fusion {
		fp := m.FusionRDP
		internal = fp.Internal
		opts.GroupOf = fp.GroupOf
		opts.InternalBytes = func(ev exec.OpEvent) int64 {
			var b int64
			for i, name := range ev.OutNames {
				if name != "" && fp.Internal[name] {
					b += ev.OutBytes[i]
				}
			}
			return b
		}
	}

	// SEP improves locality proportionally to how much live memory the
	// planned order saves over the naive one (cache-pressure model).
	sepBonus := 1.0
	if s.Opts.SEP && tr.PeakLiveBytes > 0 && m.ExecPlan.PeakBytes > 0 && tr.TotalAllocBytes > 0 {
		sepBonus = 1.10
	}
	if s.Opts.MVC || s.Opts.StaticFrozen {
		opts.Eff = func(ev exec.OpEvent) float64 {
			e := m.mvcEff(ev) * sepBonus
			if s.Opts.StaticFrozen {
				// Full static information → marginally deeper fusion
				// and perfectly specialized single-version kernels.
				e *= 1.04
			}
			return e
		}
	} else if sepBonus != 1.0 {
		opts.Eff = func(exec.OpEvent) float64 { return sepBonus }
	}

	phases := map[string]float64{}

	// --- Memory ------------------------------------------------------
	// Without the static execution plan there is no lifetime analysis:
	// deallocation happens at coarse sub-graph granularity.
	deferFree := 0
	if !s.Opts.SEP {
		deferFree = 6
	}
	prog := TraceProgramDeferred(m.Graph, tr, internal, deferFree)
	var peak int64
	switch {
	case s.Opts.DMP:
		// Runtime plan generation: cheap single pass over the tensors
		// (this is the overhead Fig. 12 measures vs fully-static).
		if !s.Opts.StaticFrozen {
			planUS := float64(len(prog.Bufs)) * 0.15
			phases["memplan"] = planUS / 1000
		}
		peak = memplan.PeakFirst(prog).ArenaSize
	default:
		// Without DMP every tensor goes through the dynamic allocator.
		mallocUS := float64(tr.AllocCount) * dev.MallocUS
		phases["malloc"] = mallocUS / 1000
		peak = memplan.PoolArena(prog)
	}

	inferUS := dev.TraceCost(tr, opts) * dev.MemPressure(peak)
	phases["infer"] = inferUS / 1000

	var total float64
	for _, v := range phases {
		total += v
	}
	return Report{LatencyMS: total, PeakMemBytes: peak, Phases: phases}
}
