package frameworks

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/workload"
)

// Invalidate drops the held region proof and keeps the cumulative
// region-hit counter.
func TestInvalidateDropsEntriesKeepsCounters(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	s := workload.Fixed(c.Builder, 1, 64, 0.5, 7)[0]
	if _, _, err := c.GuardedRun(s.Inputs, GuardOptions{}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.RegionHits == 0 || c.verified.Load() == nil {
		t.Fatalf("expected a region hit and a held proof, got %+v", before)
	}

	c.Invalidate()
	if c.verified.Load() != nil {
		t.Error("Invalidate left the proof held")
	}
	if st := c.Stats(); st != before {
		t.Errorf("Invalidate must preserve counters: %+v vs %+v", st, before)
	}
}

// Concurrent guarded runs over a mix of shapes on a plain Compile: the
// verifier runs once, its proof serves every shape, and every run
// completes on the planned tier.
func TestConcurrentGuardedRunsShareVerification(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	verifyRuns := Counters().VerifyRuns
	const goroutines, perG = 6, 4
	shapes := []int64{48, 64, 80}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				size := shapes[(g+i)%len(shapes)]
				inputs := c.Builder.Inputs(tensor.NewRNG(uint64(g*100+i)), size, 0.5)
				_, gr, err := c.GuardedRun(inputs, GuardOptions{})
				if err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, err)
					return
				}
				if len(gr.Degradations) != 0 || !gr.RegionCacheHit {
					errs <- fmt.Errorf("g%d i%d: region hit %v, degradations %+v", g, i, gr.RegionCacheHit, gr.Degradations)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := Counters().VerifyRuns - verifyRuns; got != 1 {
		t.Errorf("verifier ran %d times, want 1 (one proof for every shape)", got)
	}
	if st := c.Stats(); st.RegionHits != goroutines*perG {
		t.Errorf("region hits = %d, want %d", st.RegionHits, goroutines*perG)
	}
}
