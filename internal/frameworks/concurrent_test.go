package frameworks

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/workload"
)

// ---- LRU cache --------------------------------------------------------

func TestLRUEvictsColdEnd(t *testing.T) {
	c := newLRU[int, string](2)
	c.Add(1, "a")
	c.Add(2, "b")
	c.Add(3, "c") // evicts 1 (oldest, never touched)
	if _, ok := c.entries[1]; ok {
		t.Error("1 should be evicted")
	}
	if v, ok := c.Get(2); !ok || v != "b" { // promotes 2
		t.Error("2 should survive")
	}
	c.Add(4, "d") // now 3 is coldest
	if _, ok := c.entries[3]; ok {
		t.Error("3 should be evicted after 2 was promoted")
	}
	if _, ok := c.entries[2]; !ok {
		t.Error("promoted 2 should survive")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// Regression for the old wholesale flush: a hot entry that keeps being
// used must survive 300 distinct insertions into a 256-entry cache. The
// old code cleared the whole map at entry 256, taking the hot entry
// with it.
func TestLRUHotKeySurvivesInsertionFlood(t *testing.T) {
	c := newLRU[int, int](traceCacheCap)
	const hot = -1
	c.Add(hot, 42)
	for i := 0; i < 300; i++ {
		if _, ok := c.Get(hot); !ok {
			t.Fatalf("hot key evicted after %d distinct insertions", i)
		}
		c.Add(i, i)
	}
	if v, ok := c.Get(hot); !ok || v != 42 {
		t.Fatal("hot key must survive 300 distinct insertions")
	}
	if c.Len() != traceCacheCap {
		t.Errorf("cache grew past its bound: %d > %d", c.Len(), traceCacheCap)
	}
}

func TestLRUPurgePreservesCounters(t *testing.T) {
	c := newLRU[int, int](4)
	c.Add(1, 1)
	c.Get(1)
	c.Get(9)
	c.Purge()
	if c.Len() != 0 {
		t.Error("purge should drop entries")
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Errorf("counters should survive purge: hits=%d misses=%d", h, m)
	}
	c.Add(2, 2) // cache must stay usable after purge
	if _, ok := c.Get(2); !ok {
		t.Error("cache unusable after purge")
	}
}

// ---- Trace memo (Execute) and region proof ---------------------------

// Execute memoizes by (sample, policy): the second call for one sample is
// the first call's result, and only the first one executed. Concurrent
// callers are safe (the memo is locked), though each miss executes.
func TestExecuteMemoizesBySample(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	samples := workload.Fixed(c.Builder, 2, 64, 0.5, 7)
	first, err := c.Execute(samples[0], false, OrderPlanned)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Execute(samples[0], false, OrderPlanned)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("second Execute of one sample re-executed")
	}
	if st := c.Stats(); st.TraceMisses != 1 || st.TraceHits != 1 || st.TraceEntries != 1 {
		t.Errorf("trace memo = %d hits / %d misses / %d entries, want 1/1/1",
			st.TraceHits, st.TraceMisses, st.TraceEntries)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Execute(samples[g%2], false, OrderPlanned); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.TraceEntries != 2 {
		t.Errorf("trace entries = %d, want one per sample", st.TraceEntries)
	}
}

func TestInvalidateDropsEntriesKeepsCounters(t *testing.T) {
	c := compileModel(t, "CodeBERT")
	s := workload.Fixed(c.Builder, 1, 64, 0.5, 7)[0]
	if _, err := c.Execute(s, false, OrderPlanned); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GuardedRun(s.Inputs, GuardOptions{}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.TraceEntries == 0 || c.verified.Load() == nil {
		t.Fatalf("expected a populated memo and a held proof, got %+v", before)
	}

	c.Invalidate()
	st := c.Stats()
	if st.TraceEntries != 0 || c.verified.Load() != nil {
		t.Errorf("Invalidate left entries: %+v, proof held %v", st, c.verified.Load() != nil)
	}
	if st.TraceMisses != before.TraceMisses || st.RegionHits != before.RegionHits {
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
