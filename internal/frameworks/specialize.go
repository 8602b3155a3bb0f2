package frameworks

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"

	"repro/internal/models"
	"repro/internal/staticverify"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// This file is the compile-side of region-proven graph specialization:
// the fact/region derivation shared by the cold compile, the runtime
// contract and the verifier. (The out-of-region escape hatch for
// region-dependent certificates is the ladder's original-graph rung,
// guarded.go.)

// extentProbe is the model's input generator observed at both ends of
// its declared sampling range (MinSize and the stride-aligned maximum),
// each end bound against the analyzed input shapes. The contract facts
// and the verification region are both read off this one observation.
// The zero value — no sampling spec, or an end that does not bind —
// derives no facts and no pinned symbols.
type extentProbe struct {
	lo, hi                   symbolic.Env
	min, max, step, maxAlign int64
}

// probeExtents generates and binds the two probe inputs.
func probeExtents(b *models.Builder, g *graph.Graph, infos map[string]lattice.Info) extentProbe {
	if b == nil || b.Inputs == nil || b.MinSize <= 0 || b.MaxSize < b.MinSize {
		return extentProbe{}
	}
	p := extentProbe{min: b.MinSize, max: b.MaxSize, step: max(b.SizeStep, 1)}
	p.maxAlign = p.min + ((p.max-p.min)/p.step)*p.step
	ct := guard.NewContract(g, infos)
	var err error
	if p.lo, err = ct.BindInputs(b.Inputs(tensor.NewRNG(1), p.min, 0.5)); err != nil {
		return extentProbe{}
	}
	if p.hi, err = ct.BindInputs(b.Inputs(tensor.NewRNG(1), p.maxAlign, 0.5)); err != nil {
		return extentProbe{}
	}
	return p
}

// facts keeps a range fact [MinSize, MaxSize] — and, when the model
// samples on a stride, a divisibility fact (YOLO-v6's H % 32 == 0) — for
// each symbol that tracked the probe size at both ends. Symbols pinned
// to fixed values (SAM's prompt count) get none. Symbols are visited
// sorted: the fact order reaches Contract.Facts and the saved artifact,
// which must not differ from one compile to the next.
func (p extentProbe) facts() []guard.Fact {
	syms := make([]string, 0, len(p.lo))
	for sym := range p.lo {
		syms = append(syms, sym)
	}
	sort.Strings(syms)
	var facts []guard.Fact
	for _, sym := range syms {
		vhi, ok := p.hi[sym]
		if vlo := p.lo[sym]; !ok || vlo != p.min || vhi != p.maxAlign {
			continue // symbol does not track the dynamic extent
		}
		facts = append(facts, guard.Fact{Symbol: sym, Kind: guard.FactRange,
			Min: p.min, Max: p.max})
		if p.step > 1 {
			facts = append(facts, guard.Fact{Symbol: sym, Kind: guard.FactDivisible,
				Mod: p.step, Rem: p.min % p.step})
		}
	}
	return facts
}

// region is the input region the static proofs quantify over: the
// analyzed facts, plus singleton intervals for input symbols the probe
// showed constant. Those never get facts, but the serve-time membership
// test keeps the proof honest if a request ever binds them differently.
func (p extentProbe) region(facts []guard.Fact) staticverify.Region {
	region := staticverify.RegionFromFacts(facts)
	for sym, v := range p.lo {
		if _, have := region[sym]; !have && p.hi[sym] == v {
			region[sym] = symbolic.Point(v)
		}
	}
	return region
}
