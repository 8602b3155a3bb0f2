// Concurrent-serving benchmark: throughput of the Session facade as the
// number of client goroutines grows. Every worker draws different samples
// from the model's size range, all served by the one region proof —
// multicore scaling of the serving path (on a single-core host,
// wall-clock throughput stays flat).
package sod2

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/models"
	"repro/internal/workload"
)

var concurrentBenchModels = []string{"CodeBERT", "SkipNet", "YOLO-V6"}

// BenchmarkConcurrentInfer sweeps 1/2/4/8 client goroutines across three
// models. Metric of record: requests per second (b.N requests total per
// iteration loop). RunParallel distributes b.N requests over the
// goroutines, so reported ns/op is wall-clock per request.
func BenchmarkConcurrentInfer(b *testing.B) {
	for _, name := range concurrentBenchModels {
		m, ok := models.Get(name)
		if !ok {
			b.Fatalf("unknown model %q", name)
		}
		c, err := Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		pool := workload.Samples(m, 8, 42)
		for _, gor := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", name, gor), func(b *testing.B) {
				c.Invalidate()
				sess := c.NewSession(SessionOptions{})
				// Warm once (the first request proves the region) so the
				// steady-state serving path is what the loop measures.
				for _, s := range pool {
					if _, _, err := sess.InferConcurrentCtx(context.Background(), s.Inputs); err != nil {
						b.Fatal(err)
					}
				}
				before := sess.Stats()
				b.ResetTimer()
				benchDistinct(b, sess, pool, gor)
				b.StopTimer()
				st := sess.Stats()
				b.ReportMetric(float64(st.Cache.RegionHits-before.Cache.RegionHits), "region-hits")
			})
		}
	}
}

// benchDistinct spreads b.N requests over gor goroutines, each cycling
// through the sample pool from a different offset so concurrent workers
// exercise different shapes at any instant.
func benchDistinct(b *testing.B, sess *Session, pool []Sample, gor int) {
	var wg sync.WaitGroup
	per := b.N / gor
	for g := 0; g < gor; g++ {
		n := per
		if g == gor-1 {
			n = b.N - per*(gor-1)
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s := pool[(g+i)%len(pool)]
				if _, _, err := sess.InferConcurrentCtx(context.Background(), s.Inputs); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
}
