// The concurrent serving suite (run under -race in CI): a shared
// Compiled must serve simultaneous guarded inferences from many
// goroutines with outputs bit-identical to the serial run, and the
// Session facade must report each request correctly.
package sod2

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/frameworks"
	"repro/internal/guard"
	"repro/internal/models"
	"repro/internal/resilience"
	"repro/internal/tensor"
	"repro/internal/workload"
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

// TestSessionBadRequestFailsAlone: a request missing its inputs fails
// with an input contract violation, not counted against the plan, and
// the requests around it serve, each reporting the region proof's plan
// (distinct in-region shapes share one proof).
func TestSessionBadRequestFailsAlone(t *testing.T) {
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession(SessionOptions{})
	for i, in := range []map[string]*Tensor{
		NewSample(b, 48, 0.5, 100).Inputs, {}, NewSample(b, 72, 0.5, 101).Inputs,
	} {
		out, rep, err := sess.InferConcurrentCtx(context.Background(), in)
		if i == 1 {
			var ce *ContractError
			if !errors.As(err, &ce) || ce.Kind != guard.KindInput {
				t.Errorf("request without inputs: err %v, want an input contract violation", err)
			}
			continue
		}
		if err != nil || len(out) == 0 {
			t.Fatalf("request %d: %d outputs, err %v", i, len(out), err)
		}
		if !rep.RegionCacheHit {
			t.Errorf("request %d should report a region hit", i)
		}
	}
	if st := sess.Stats(); st.Breaker.Faults != 0 || st.Health != resilience.Healthy {
		t.Errorf("bad request counted against the plan: health %v, breaker %+v", st.Health, st.Breaker)
	}
}

// TestFamilyKeyRegionSharing: every input set binding inside the
// verified region shares ONE family key (different concrete shapes
// included), and inputs that do not name every graph input have none.
func TestFamilyKeyRegionSharing(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	b, _ := BuildModel("CodeBERT")
	samples := workload.Samples(b, 4, 7)
	key0, proven0 := c.FamilyKey(samples[0].Inputs)
	if key0 == "" || !proven0 {
		t.Fatalf("in-region inputs: key=%q proven=%v, want region key", key0, proven0)
	}
	for _, s := range samples[1:] {
		key, proven := c.FamilyKey(s.Inputs)
		if key != key0 || !proven {
			t.Fatalf("region key not shared across the family: %q/%v vs %q", key, proven, key0)
		}
	}
	if key, proven := c.FamilyKey(map[string]*Tensor{}); key != "" || proven {
		t.Fatalf("unbindable inputs must have no key, got %q/%v", key, proven)
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
	// The retired plan-cache, coalescing and bucket counters read 0.
	if st.Coalesced != 0 || st.Cache.PlanMisses != 0 || st.Cache.PlanHits != 0 ||
		st.Buckets != 0 || st.BucketMembers != 0 {
		t.Errorf("retired counters moved: coalesced %d, plan %d hits / %d misses, buckets %d of %d members",
			st.Coalesced, st.Cache.PlanHits, st.Cache.PlanMisses, st.Buckets, st.BucketMembers)
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
	out, rep, err := sess.InferConcurrentCtx(context.Background(), NewSample(b, 64, 0.5, 1).Inputs)
	fmt.Println(len(out), rep.RegionCacheHit, err == nil)
	// Output: 1 true true
}
