package frameworks

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/models"
	"repro/internal/workload"
)

// BenchmarkCostModel measures the analytic cost model on a memoized
// trace — the execution itself is cached by sample ID, and the warm-up
// run builds the harness plans, so the loop body is the per-report
// work: trace walking with the MVC efficiency lookup through the
// harness plans' hotspot index (SoD2) and the pool-allocator arena
// simulation (ORT). These are the two paths the hotspot-index and
// single-sort rewrites target; the before/after numbers are recorded
// in EXPERIMENTS.md.
func BenchmarkCostModel(b *testing.B) {
	m, ok := models.Get("StableDiffusion")
	if !ok {
		b.Fatal("StableDiffusion missing")
	}
	c, err := Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	s := workload.Fixed(m, 1, m.MaxSize, 0.5, 3)[0]
	dev := costmodel.SD888CPU

	b.Run("sod2-mvcEff", func(b *testing.B) {
		e := NewSoD2(FullSoD2())
		if _, err := e.Run(c, s, dev); err != nil { // warm the trace memo and the harness plans
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(c, s, dev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ort-poolSim", func(b *testing.B) {
		e := NewORT()
		if _, err := e.Run(c, s, dev); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(c, s, dev); err != nil {
				b.Fatal(err)
			}
		}
	})
}
