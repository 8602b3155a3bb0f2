// Concurrent-serving benchmarks: throughput of the Session facade as
// the number of client goroutines grows. Two scenarios per model:
//
//   - distinct: every worker draws different samples from the model's
//     size range — measures plan-cache effectiveness and multicore
//     scaling (on a single-core host, wall-clock throughput stays flat;
//     the cache counters still prove the per-shape work happens once).
//   - coalesced: all in-flight requests carry the same hot sample —
//     measures singleflight request coalescing, where G goroutines are
//     served by one execution (throughput scales with G even on one
//     core because G−1 requests piggyback).
package sod2

import (
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
		// The hot request is the model's largest input: long enough that a
		// wave's followers reliably arrive while the leader still executes.
		hot := workload.Fixed(m, 1, m.MaxSize, 0.5, 42)[0]
		for _, scenario := range []string{"distinct", "coalesced"} {
			for _, gor := range []int{1, 2, 4, 8} {
				bname := fmt.Sprintf("%s/%s/goroutines=%d", name, scenario, gor)
				b.Run(bname, func(b *testing.B) {
					c.Invalidate()
					sess := c.NewSession(SessionOptions{Workers: gor})
					// Warm the per-shape caches once so the steady-state
					// serving path is what the loop measures.
					for _, s := range append(pool, hot) {
						if _, _, err := sess.InferSample(s); err != nil {
							b.Fatal(err)
						}
					}
					before := sess.Stats()
					b.ResetTimer()
					if scenario == "coalesced" {
						benchCoalesced(b, sess, hot, gor)
					} else {
						benchDistinct(b, sess, pool, gor)
					}
					b.StopTimer()
					st := sess.Stats()
					b.ReportMetric(float64(st.Cache.PlanHits-before.Cache.PlanHits), "plan-hits")
					b.ReportMetric(float64(st.Coalesced-before.Coalesced), "coalesced")
				})
			}
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
				if _, _, err := sess.InferSample(s); err != nil {
					b.Error(err)
					return
				}
			}
		}(g, n)
	}
	wg.Wait()
}

// benchCoalesced issues b.N requests for one hot sample in waves of gor
// concurrent clients: each wave's requests race on the same sample ID,
// so singleflight serves the whole wave with (at best) one execution. A
// start barrier per wave makes sure the clients really are in flight
// together rather than trickling in after the leader finished.
func benchCoalesced(b *testing.B, sess *Session, hot Sample, gor int) {
	done := 0
	for done < b.N {
		wave := gor
		if b.N-done < wave {
			wave = b.N - done
		}
		start := make(chan struct{})
		var ready, wg sync.WaitGroup
		for g := 0; g < wave; g++ {
			ready.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready.Done()
				<-start
				if _, _, err := sess.InferSample(hot); err != nil {
					b.Error(err)
				}
			}()
		}
		ready.Wait()
		close(start)
		wg.Wait()
		done += wave
	}
}
