package memplan_test

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestLayoutFitNeverAliasesAnInput pins the invariant the executor's
// destination-passing kernels rest on: a kernel writes its outputs
// straight into their fitted arena slots while it still reads its
// inputs, which is sound only if no node's output slot overlaps the slot
// of an input that node consumes. FromSteps makes a consumed value live
// through the step that consumes it (inclusive intervals), the step the
// node's outputs are born at, so the two never share bytes. Checked on
// all ten models' region-proven layouts, as planned and fitted to the
// value sizes of a request at the smallest, a middle and the largest
// size. Were the intervals half-open, an output could take the slot of
// an input dying at its step, and this test would fail.
func TestLayoutFitNeverAliasesAnInput(t *testing.T) {
	for _, b := range models.All() {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			c, rep, err := frameworks.CompileVerified(b)
			if err != nil || !rep.Mem.Proven {
				t.Fatalf("compile: err %v, memory plan proven %v", err, rep != nil && rep.Mem.Proven)
			}
			l := rep.Mem.Layout
			// overlaps reports the first pair of a node's output and one of
			// its inputs whose slots share a byte, under offsets and sizes.
			overlaps := func(offs, sizes []int64) (node, out, in string) {
				for _, n := range c.ExecPlan.Order {
					for _, o := range n.Outputs {
						j, ok := l.Index[o]
						if !ok || sizes[j] == 0 {
							continue
						}
						for _, i := range n.Inputs {
							k, ok := l.Index[i]
							if ok && sizes[k] > 0 && offs[j] < offs[k]+sizes[k] && offs[k] < offs[j]+sizes[j] {
								return n.Name, o, i
							}
						}
					}
				}
				return "", "", ""
			}
			if node, o, i := overlaps(l.Offsets, l.Sizes); node != "" {
				t.Fatalf("planned layout: %s writes %s over its input %s", node, o, i)
			}
			steps := (b.MaxSize - b.MinSize) / b.SizeStep
			for _, size := range []int64{b.MinSize, b.MinSize + steps/2*b.SizeStep, b.MinSize + steps*b.SizeStep} {
				res, err := exec.Run(c.Graph, b.Inputs(tensor.NewRNG(uint64(size)), size, 0.5),
					exec.Options{Order: c.ExecPlan.Order, Hooks: &exec.Hooks{}})
				if err != nil {
					t.Fatalf("@%d: %v", size, err)
				}
				sizes, offs := make([]int64, len(l.Names)), make([]int64, len(l.Names))
				for _, ev := range res.Trace.Events {
					for k, name := range ev.OutNames {
						if j, ok := l.Index[name]; ok {
							sizes[j] = ev.OutBytes[k]
						}
					}
				}
				if _, ok := l.Fit(sizes, offs); !ok {
					t.Fatalf("@%d: the request's sizes do not fit the planned ones", size)
				}
				if node, o, i := overlaps(offs, sizes); node != "" {
					t.Errorf("@%d: %s writes %s over its input %s in the fitted layout", size, node, o, i)
				}
			}
		})
	}
}
