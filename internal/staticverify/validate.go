package staticverify

import (
	"fmt"
	"slices"

	"repro/internal/absint"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/mvc"
	"repro/internal/tensor"
)

// SpecInput carries the pre-specialization world for translation
// validation: the original graph, its RDP fixed point, and the
// certificate the specializer emitted. Input.Graph/Infos describe the
// specialized graph the rest of the verifier (exec/liveness/memory/
// wavefront proofs) runs on.
type SpecInput struct {
	Orig      *graph.Graph
	OrigInfos map[string]lattice.Info
	Cert      *absint.Certificate
	// MinSize/MaxSize are the generic symbolic-extent assumptions the
	// MVC plans were built with (needed to re-derive narrowings).
	MinSize, MaxSize int64
}

// SpecVerdict is the outcome of the translation-validation pass.
type SpecVerdict struct {
	Checked bool
	Proven  bool
	Reason  string // set when Checked && !Proven
	// Summary counts of the validated certificate.
	BranchesPruned int
	Constified     int
	LoopsBounded   int
	NodesRemoved   int
	Narrowed       int
}

// ValidateSpecialization independently re-checks a specialization
// certificate: every decision is re-derived from the original graph's
// RDP fixed point by a fresh abstract-interpretation run, the recorded
// decisions must match the re-derived ones exactly, a mechanical replay
// of the certificate must reproduce the specialized graph node for node,
// and the recorded MVC narrowings must match a re-derived region plan.
// Combined with the verifier's own exec/liveness/memory/wavefront proofs
// over the specialized graph, a Proven verdict means the specialized
// graph is equivalent to the original over the region and all its plans
// re-prove.
func ValidateSpecialization(spec *graph.Graph, specInfos map[string]lattice.Info, region Region, in *SpecInput) (SpecVerdict, []Diagnostic) {
	if in == nil || in.Cert == nil {
		return SpecVerdict{}, nil
	}
	cert := in.Cert
	v := SpecVerdict{
		Checked:      true,
		Constified:   len(cert.Constified),
		LoopsBounded: len(cert.LoopBounds),
		NodesRemoved: len(cert.Removed),
		Narrowed:     len(cert.Narrowings),
	}
	for _, b := range cert.Branches {
		if b.Applied {
			v.BranchesPruned++
		}
	}
	fail := func(format string, args ...any) (SpecVerdict, []Diagnostic) {
		v.Proven = false
		v.Reason = fmt.Sprintf(format, args...)
		return v, []Diagnostic{{Code: "specialization", Severity: Error, Detail: v.Reason}}
	}

	// 1. The certificate's region must be the region being verified —
	// a certificate proven for a different region proves nothing here.
	if !sameRegion(Region(cert.Region), region) {
		return fail("certificate region %v does not match verified region %v", Region(cert.Region), region)
	}

	// 2. Re-derive every decision from the original graph with a fresh
	// abstract-interpretation run and demand an exact match.
	re := absint.Decide(in.Orig, in.OrigInfos, absint.Options{Region: cert.Region})
	if err := sameDecisions(cert, re); err != nil {
		return fail("decision mismatch: %v", err)
	}

	// 3. Mechanically replay the certificate on the original graph; the
	// result must reproduce the specialized graph exactly. Replay itself
	// cross-checks the recorded removal/rewrite/fold consequences.
	replayed, err := absint.Replay(in.Orig, cert)
	if err != nil {
		return fail("replay: %v", err)
	}
	if err := sameGraph(replayed, spec); err != nil {
		return fail("replayed graph differs from specialized graph: %v", err)
	}

	// 4. Re-derive the MVC narrowings on the specialized graph.
	base := mvc.BuildPlan(spec, specInfos, in.MinSize, in.MaxSize)
	narrowed := mvc.BuildPlanRegion(spec, specInfos, in.MinSize, in.MaxSize, cert.Region)
	if err := sameNarrowings(cert.Narrowings, mvc.DiffPlans(base, narrowed)); err != nil {
		return fail("narrowing mismatch: %v", err)
	}

	v.Proven = true
	return v, nil
}

func sameRegion(a, b Region) bool {
	if len(a) != len(b) {
		return false
	}
	for s, iv := range a {
		if b[s] != iv {
			return false
		}
	}
	return true
}

// sameDecisions checks the certificate's recorded decisions against a
// freshly re-derived decision list (Applied flags are structural, not
// analytical, and are checked by replay instead).
func sameDecisions(cert *absint.Certificate, re absint.DecisionList) error {
	if len(cert.Branches) != len(re.Branches) {
		return fmt.Errorf("%d recorded branch decisions, re-derived %d", len(cert.Branches), len(re.Branches))
	}
	for i, b := range cert.Branches {
		r := re.Branches[i]
		if b.Node != r.Node || b.Op != r.Op || b.Taken != r.Taken || b.RegionDep != r.RegionDep {
			return fmt.Errorf("branch %d: recorded %+v, re-derived %+v", i, b, r)
		}
	}
	if len(cert.Constified) != len(re.Constified) {
		return fmt.Errorf("%d recorded constified values, re-derived %d", len(cert.Constified), len(re.Constified))
	}
	for i, c := range cert.Constified {
		r := re.Constified[i]
		if c.Value != r.Value || c.RegionDep != r.RegionDep ||
			!slices.Equal(c.Dims, r.Dims) || !slices.Equal(c.Ints, r.Ints) {
			return fmt.Errorf("constified %d: recorded %+v, re-derived %+v", i, c, r)
		}
	}
	if len(cert.LoopBounds) != len(re.LoopBounds) {
		return fmt.Errorf("%d recorded loop bounds, re-derived %d", len(cert.LoopBounds), len(re.LoopBounds))
	}
	for i, l := range cert.LoopBounds {
		if re.LoopBounds[i] != l {
			return fmt.Errorf("loop bound %d: recorded %+v, re-derived %+v", i, l, re.LoopBounds[i])
		}
	}
	return nil
}

func sameNarrowings(recorded []absint.Narrowing, derived []mvc.VersionDiff) error {
	if len(recorded) != len(derived) {
		return fmt.Errorf("%d recorded, %d re-derived", len(recorded), len(derived))
	}
	for i, n := range recorded {
		d := derived[i]
		if n.Node != d.Node || !slices.Equal(n.Before, d.Before) || !slices.Equal(n.After, d.After) {
			return fmt.Errorf("narrowing %d: recorded %+v, re-derived %+v", i, n, d)
		}
	}
	return nil
}

// sameGraph checks structural equality of two graphs: inputs, outputs,
// initializer contents, and every node's name/op/wiring/attributes
// (subgraph attributes recursively).
func sameGraph(a, b *graph.Graph) error {
	if len(a.Inputs) != len(b.Inputs) {
		return fmt.Errorf("input count %d vs %d", len(a.Inputs), len(b.Inputs))
	}
	for i := range a.Inputs {
		if a.Inputs[i].Name != b.Inputs[i].Name || a.Inputs[i].DType != b.Inputs[i].DType ||
			!a.Inputs[i].Shape.Equal(b.Inputs[i].Shape) {
			return fmt.Errorf("input %d differs (%s vs %s)", i, a.Inputs[i].Name, b.Inputs[i].Name)
		}
	}
	if !slices.Equal(a.Outputs, b.Outputs) {
		return fmt.Errorf("outputs %v vs %v", a.Outputs, b.Outputs)
	}
	if len(a.Initializers) != len(b.Initializers) {
		return fmt.Errorf("initializer count %d vs %d", len(a.Initializers), len(b.Initializers))
	}
	for name, at := range a.Initializers {
		bt, ok := b.Initializers[name]
		if !ok {
			return fmt.Errorf("initializer %q missing", name)
		}
		if !sameTensor(at, bt) {
			return fmt.Errorf("initializer %q contents differ", name)
		}
	}
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("node count %d vs %d", len(a.Nodes), len(b.Nodes))
	}
	for i := range a.Nodes {
		if err := sameNode(a.Nodes[i], b.Nodes[i]); err != nil {
			return fmt.Errorf("node %d: %v", i, err)
		}
	}
	return nil
}

func sameNode(a, b *graph.Node) error {
	if a.Name != b.Name || a.OpType != b.OpType {
		return fmt.Errorf("%s/%s vs %s/%s", a.Name, a.OpType, b.Name, b.OpType)
	}
	if !slices.Equal(a.Inputs, b.Inputs) || !slices.Equal(a.Outputs, b.Outputs) {
		return fmt.Errorf("%s: wiring differs", a.Name)
	}
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Errorf("%s: attr count %d vs %d", a.Name, len(a.Attrs), len(b.Attrs))
	}
	for k, av := range a.Attrs {
		bv, ok := b.Attrs[k]
		if !ok || av.Kind != bv.Kind {
			return fmt.Errorf("%s: attr %q differs", a.Name, k)
		}
		if av.Kind == graph.AttrGraph {
			if (av.G == nil) != (bv.G == nil) {
				return fmt.Errorf("%s: attr %q subgraph presence differs", a.Name, k)
			}
			if av.G != nil {
				if err := sameGraph(av.G, bv.G); err != nil {
					return fmt.Errorf("%s: attr %q subgraph: %v", a.Name, k, err)
				}
			}
			continue
		}
		if av.I != bv.I || av.F != bv.F || av.S != bv.S || !slices.Equal(av.Ints, bv.Ints) {
			return fmt.Errorf("%s: attr %q value differs", a.Name, k)
		}
	}
	return nil
}

func sameTensor(a, b *tensor.Tensor) bool {
	if a == b {
		return true
	}
	if a.DType != b.DType || !slices.Equal(a.Shape, b.Shape) {
		return false
	}
	switch a.DType {
	case tensor.Float32:
		for i := range a.F {
			if a.F[i] != b.F[i] {
				return false
			}
		}
	case tensor.Int64:
		return slices.Equal(a.I, b.I)
	case tensor.Bool:
		for i := range a.B {
			if a.B[i] != b.B[i] {
				return false
			}
		}
	}
	return true
}
