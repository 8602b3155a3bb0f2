// The concurrent serving suite (run under -race in CI): a shared
// Compiled must serve simultaneous guarded inferences from many
// goroutines with outputs bit-identical to the serial run, and the
// Session facade must fan out and report correctly.
package sod2

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestConcurrentInferAllModels runs N goroutines of InferGuarded against
// one shared Compiled for every evaluation model and checks each
// concurrent output against the serial reference, element for element.
func TestConcurrentInferAllModels(t *testing.T) {
	const goroutines = 4
	for _, m := range models.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			c, err := Compile(m)
			if err != nil {
				t.Fatal(err)
			}
			inputs := m.Inputs(tensor.NewRNG(11), m.MinSize, 0.5)

			// Serial reference first (its request also proves the region
			// — the concurrent runs below are served by that proof).
			ref, refRep, err := c.InferGuarded(inputs, GuardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if len(refRep.Degradations) != 0 {
				t.Fatalf("reference run degraded: %+v", refRep.Degradations)
			}
			// A plain Compile serves like CompileVerified: the first
			// request runs the verifier and rides its proof.
			if !refRep.RegionCacheHit || refRep.FallbackTier != TierPlanned {
				t.Errorf("first request after Compile: region hit %v on tier %v, want a hit on the planned tier",
					refRep.RegionCacheHit, refRep.FallbackTier)
			}

			type result struct {
				outs map[string]*Tensor
				rep  Report
				err  error
			}
			results := make([]result, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					outs, rep, err := c.InferGuarded(inputs, GuardOptions{})
					results[g] = result{outs, rep, err}
				}(g)
			}
			wg.Wait()

			for g, r := range results {
				if r.err != nil {
					t.Fatalf("goroutine %d: %v", g, r.err)
				}
				if len(r.rep.Degradations) != 0 {
					t.Errorf("goroutine %d degraded: %+v", g, r.rep.Degradations)
				}
				if !r.rep.RegionCacheHit {
					t.Errorf("goroutine %d missed the region proof", g)
				}
				if len(r.outs) != len(ref) {
					t.Fatalf("goroutine %d: %d outputs, want %d", g, len(r.outs), len(ref))
				}
				for name, want := range ref {
					got := r.outs[name]
					if got == nil {
						t.Fatalf("goroutine %d missing output %q", g, name)
						continue
					}
					if len(got.F) != len(want.F) {
						t.Fatalf("goroutine %d output %q: %d elems, want %d", g, name, len(got.F), len(want.F))
					}
					for i := range want.F {
						if got.F[i] != want.F[i] {
							t.Fatalf("goroutine %d output %q[%d] = %v, want %v (not bit-identical)",
								g, name, i, got.F[i], want.F[i])
						}
					}
				}
			}
		})
	}
}

// TestSessionInferBatch: InferBucketCtx's results come back in
// submission order, each with its own report, and a bad request fails
// alone.
func TestSessionInferBatch(t *testing.T) {
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession(SessionOptions{})

	samples := make([]Sample, 6)
	for i := range samples {
		samples[i] = NewSample(b, int64(48+8*i), 0.5, uint64(100+i))
	}
	// Sabotage one request: a missing graph input must fail that request
	// only.
	samples[3].Inputs = map[string]*Tensor{}

	results := sess.InferBucketCtx(context.Background(), samples)
	if len(results) != len(samples) {
		t.Fatalf("got %d results for %d samples", len(results), len(samples))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if i == 3 {
			if r.Err == nil {
				t.Error("sabotaged request should fail")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("request %d failed: %v", i, r.Err)
		}
		if len(r.Outputs) == 0 {
			t.Errorf("request %d produced no outputs", i)
		}
	}

	// Per-request reports say which plan served them: every in-region
	// shape rides the one region proof.
	for i, r := range results {
		if i != 3 && !r.Report.RegionCacheHit {
			t.Errorf("request %d should report a region hit", i)
		}
	}
}

// TestSessionStatsCounts pins the session counters on a deterministic
// serial request stream.
func TestSessionStatsCounts(t *testing.T) {
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession(SessionOptions{})
	s1 := NewSample(b, 64, 0.5, 31)
	s2 := NewSample(b, 80, 0.5, 32)
	for _, s := range []Sample{s1, s2, s1, s2, s1} {
		if _, _, err := sess.InferConcurrentCtx(context.Background(), s.Inputs); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.Requests != 5 {
		t.Errorf("requests = %d, want 5", st.Requests)
	}
	// Two distinct shapes, one proof: every request is a region hit.
	if st.Cache.RegionHits != 5 {
		t.Errorf("region hits = %d, want 5", st.Cache.RegionHits)
	}
	// The retired plan-cache and coalescing counters read 0.
	if st.Coalesced != 0 || st.Cache.PlanMisses != 0 || st.Cache.PlanHits != 0 {
		t.Errorf("retired counters moved: coalesced %d, plan %d hits / %d misses",
			st.Coalesced, st.Cache.PlanHits, st.Cache.PlanMisses)
	}
	// The retired trace-memo counters read 0 too.
	if st.Cache.TraceMisses != 0 || st.Cache.TraceHits != 0 {
		t.Errorf("trace counters = %d hits / %d misses, want 0/0", st.Cache.TraceHits, st.Cache.TraceMisses)
	}
}

// TestSessionsShareModelCaches: two sessions over one Compiled share the
// region proof — the second session's first request runs no verifier.
func TestSessionsShareModelCaches(t *testing.T) {
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSample(b, 64, 0.5, 41)
	sessA := c.NewSession(SessionOptions{})
	if _, _, err := sessA.InferConcurrentCtx(context.Background(), s.Inputs); err != nil {
		t.Fatal(err)
	}
	verifyRuns := frameworks.Counters().VerifyRuns
	sessB := c.NewSession(SessionOptions{})
	_, rep, err := sessB.InferConcurrentCtx(context.Background(), s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RegionCacheHit || frameworks.Counters().VerifyRuns != verifyRuns {
		t.Error("second session should reuse the first session's proof")
	}
}

func ExampleSession() {
	b, _ := BuildModel("CodeBERT")
	c, _ := Compile(b)
	sess := c.NewSession(SessionOptions{})
	samples := []Sample{NewSample(b, 64, 0.5, 1), NewSample(b, 64, 0.5, 2)}
	results := sess.InferBucketCtx(context.Background(), samples)
	fmt.Println(len(results), results[0].Err == nil)
	// Output: 2 true
}
