package frameworks

import (
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"

	"repro/internal/models"
	"repro/internal/staticverify"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// This file derives the input region a compile quantifies over, read
// off one probe of the model's declared input shapes. The cold compile
// installs it; the runtime entry check, the verifier and the MVC plan
// all read it from there.

// extentProbe is the model's input declaration read at both ends of its
// declared sampling range (MinSize and the stride-aligned maximum), each
// end bound against the analyzed input shapes. The verification region
// is read off this one observation. The zero value — no sampling spec,
// or an end that does not bind — pins no symbols and yields an empty
// region.
type extentProbe struct {
	lo, hi                   symbolic.Env
	min, max, step, maxAlign int64
}

// probeExtents binds the inputs declared at the two probe sizes. It
// draws no sample: the binding reads only dtypes and shapes.
func probeExtents(b *models.Builder, g *graph.Graph, infos map[string]lattice.Info) extentProbe {
	if b == nil || b.Spec == nil || b.MinSize <= 0 || b.MaxSize < b.MinSize {
		return extentProbe{}
	}
	p := extentProbe{min: b.MinSize, max: b.MaxSize, step: max(b.SizeStep, 1)}
	p.maxAlign = p.min + ((p.max-p.min)/p.step)*p.step
	ct := guard.NewContract(g, infos)
	var err error
	if p.lo, err = ct.BindInputs(declared(b.Spec(p.min, 0.5))); err != nil {
		return extentProbe{}
	}
	if p.hi, err = ct.BindInputs(declared(b.Spec(p.maxAlign, 0.5))); err != nil {
		return extentProbe{}
	}
	return p
}

// declared is one sample's inputs as tensor headers carrying the
// declared dtype and shape, and no storage.
func declared(specs []models.InputSpec) map[string]*tensor.Tensor {
	m := make(map[string]*tensor.Tensor, len(specs))
	for _, s := range specs {
		m[s.Name] = &tensor.Tensor{DType: s.DType, Shape: s.Shape}
	}
	return m
}

// region is the input region the static proofs and the serve-time
// entry check quantify over. A symbol that tracked the probe size at
// both ends gets the sampled interval [MinSize, maxAlign] on the
// sampling stride (YOLO-v6's H∈[224,640]/32); a symbol the probe showed
// constant (StableDiffusion's L∈{16}) gets its point, so a request that
// binds it differently is refused by the region rather than served off
// a proof that never covered it.
func (p extentProbe) region() staticverify.Region {
	region := staticverify.Region{}
	for sym, vlo := range p.lo {
		vhi, ok := p.hi[sym]
		if !ok {
			continue
		}
		switch {
		case vlo == p.min && vhi == p.maxAlign:
			region[sym] = symbolic.NewInterval(p.min, p.maxAlign, p.step)
		case vlo == vhi:
			region[sym] = symbolic.Point(vlo)
		}
	}
	return region
}
