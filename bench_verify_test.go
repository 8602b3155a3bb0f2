// Shape-sweep benchmark for the static plan verifier: a request stream
// cycling through many distinct input shapes, all served by the
// shape-family region proof — one symbolic verification serves every
// in-region shape. The custom metrics make the amortization visible:
// "verifications" counts verifier runs actually performed and
// "shapes-per-verify" is distinct shapes served per verification (the
// whole sweep).
package sod2

import (
	"context"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/workload"
)

// BenchmarkShapeSweep serves 8 distinct in-region shapes round-robin.
func BenchmarkShapeSweep(b *testing.B) {
	const distinct = 8
	for _, name := range []string{"CodeBERT", "YOLO-V6", "SkipNet"} {
		m, ok := models.Get(name)
		if !ok {
			b.Fatalf("unknown model %q", name)
		}
		// distinct step-aligned sizes spanning the model's input range.
		span := (m.MaxSize - m.MinSize) / m.SizeStep
		pool := make([]Sample, 0, distinct)
		for i := 0; i < distinct; i++ {
			size := m.MinSize + (span*int64(i)/int64(distinct-1))*m.SizeStep
			pool = append(pool, workload.Fixed(m, 1, size, 0.5, 42)[0])
		}
		b.Run(name, func(b *testing.B) {
			c, err := Compile(m)
			if err != nil {
				b.Fatal(err)
			}
			verifyRuns := frameworks.Counters().VerifyRuns
			sess := c.NewSession(SessionOptions{})
			// Warm once so the loop measures steady-state serving; the
			// warmup's verification is part of the accounting.
			for _, s := range pool {
				if _, _, err := sess.InferConcurrentCtx(context.Background(), s.Inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := sess.InferConcurrentCtx(context.Background(), pool[i%distinct].Inputs); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := sess.Stats()
			verifications := float64(frameworks.Counters().VerifyRuns - verifyRuns)
			b.ReportMetric(verifications, "verifications")
			b.ReportMetric(float64(st.Cache.RegionHits), "region-hits")
			b.ReportMetric(float64(distinct)/verifications, "shapes-per-verify")
		})
	}
}
