package frameworks

import (
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The paper's correctness requirement (§4): "All of these optimizations
// ensure a deterministic running sequence and a consistent output, given
// a particular input." Every model must produce numerically identical
// outputs under (a) the naive topological order, (b) the BFS order, (c)
// SoD²'s planned order, and (d) the execute-all-branches policy.
func TestPlannedOrderPreservesOutputs(t *testing.T) {
	for _, b := range models.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			size := b.MinSize
			s := workload.Fixed(b, 1, size, 0.6, 31)[0]
			ref, err := c.Execute(s, false, OrderTopo)
			if err != nil {
				t.Fatal(err)
			}
			for kind, label := range map[OrderKind]string{OrderBFS: "bfs", OrderPlanned: "planned"} {
				got, err := c.Execute(s, false, kind)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				compareOutputs(t, label, ref.Outputs, got.Outputs)
			}
			all, err := c.Execute(s, true, OrderTopo)
			if err != nil {
				t.Fatal(err)
			}
			compareOutputs(t, "execute-all", ref.Outputs, all.Outputs)
		})
	}
}

func compareOutputs(t *testing.T, label string, ref, got map[string]*tensor.Tensor) {
	t.Helper()
	for name, r := range ref {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: output %s missing", label, name)
		}
		if r.DType == tensor.Float32 {
			if !tensor.AllClose(r, g, 1e-4) {
				t.Fatalf("%s: output %s differs", label, name)
			}
		} else if !tensor.SameShape(r.Shape, g.Shape) {
			t.Fatalf("%s: output %s shape %v vs %v", label, name, r.Shape, g.Shape)
		}
	}
}
