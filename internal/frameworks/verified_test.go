package frameworks

import (
	"sync"
	"testing"

	"repro/internal/models"
	"repro/internal/tensor"
)

// TestVerifyModels runs the static plan verifier over all 10 evaluation
// models. The acceptance bar: at least 5 must have their memory plan
// proven overlap-free symbolically; unprovable models must record a
// reason and an explicit diagnostic — never a silent skip.
func TestVerifyModels(t *testing.T) {
	proven := 0
	for _, b := range models.All() {
		c, rep, err := CompileVerified(b)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !rep.Exec.Proven {
			t.Errorf("%s: execution plan unproven: %s", b.Name, rep.Exec.Reason)
		}
		if rep.Mem.Proven {
			proven++
			if rep.Mem.Plan == nil {
				t.Errorf("%s: proven verdict without a plan", b.Name)
			}
			t.Logf("%s: proven (%d buffers, arena %d bytes, region %v)",
				b.Name, rep.Mem.Buffers, rep.Mem.ArenaSize, rep.Region)
		} else {
			if rep.Mem.Reason == "" {
				t.Errorf("%s: unprovable without a reason", b.Name)
			}
			found := false
			for _, d := range rep.Diagnostics {
				if d.Code == "unprovable" {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: unprovable without an unprovable diagnostic", b.Name)
			}
			t.Logf("%s: unprovable: %s", b.Name, rep.Mem.Reason)
		}
		// The verifier must never break serving: one guarded run at the
		// minimum extent still works on every model.
		s := b.Inputs(tensor.NewRNG(3), b.MinSize, 0.5)
		if _, _, err := c.GuardedRun(s, GuardOptions{}); err != nil {
			t.Errorf("%s: guarded run after verify failed: %v", b.Name, err)
		}
	}
	if proven < 5 {
		t.Errorf("only %d of %d models proven overlap-free symbolically, want >= 5", proven, len(models.All()))
	}
}

// TestRegionServesMultipleShapes pins the shape-family upgrade: after one
// verification, distinct shapes inside the region are all served from
// the proven plan (RegionCacheHit) with zero per-shape verifications.
func TestRegionServesMultipleShapes(t *testing.T) {
	b, ok := models.Get("CodeBERT")
	if !ok {
		t.Fatal("CodeBERT not registered")
	}
	c, rep, err := CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mem.Proven {
		t.Fatalf("CodeBERT must be provable, got: %s", rep.Mem.Reason)
	}

	// Reference outputs from an unverified compile: the region-served
	// results must be identical.
	plain, err := Compile(b)
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int64{b.MinSize, b.MinSize + 7, b.MinSize + 32}
	for _, size := range sizes {
		in := b.Inputs(tensor.NewRNG(11), size, 0.5)
		res, gr, err := c.GuardedRun(in, GuardOptions{})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !gr.RegionCacheHit {
			t.Errorf("size %d: expected RegionCacheHit", size)
		}
		if len(gr.Degradations) != 0 {
			t.Errorf("size %d: unexpected degradations %v", size, gr.Degradations)
		}
		want, _, err := plain.GuardedRun(b.Inputs(tensor.NewRNG(11), size, 0.5), GuardOptions{})
		if err != nil {
			t.Fatalf("size %d (plain): %v", size, err)
		}
		for name, wt := range want.Outputs {
			gt := res.Outputs[name]
			if gt == nil {
				t.Fatalf("size %d: output %q missing", size, name)
			}
			if len(gt.F) != len(wt.F) {
				t.Fatalf("size %d: output %q length %d != %d", size, name, len(gt.F), len(wt.F))
			}
			for i := range wt.F {
				if gt.F[i] != wt.F[i] {
					t.Fatalf("size %d: output %q differs at %d: %v != %v", size, name, i, gt.F[i], wt.F[i])
				}
			}
		}
	}

	st := c.Stats()
	if st.RegionHits != uint64(len(sizes)) {
		t.Errorf("RegionHits = %d, want %d", st.RegionHits, len(sizes))
	}
}

// TestRegionMissFallsBack pins the fallback contract: a request outside
// the verified region answers to the analyzed facts (and degrades on
// them) instead of being served from — or rejected by — the region plan.
func TestRegionMissFallsBack(t *testing.T) {
	b, ok := models.Get("CodeBERT")
	if !ok {
		t.Fatal("CodeBERT not registered")
	}
	c, rep, err := CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mem.Proven {
		t.Fatalf("CodeBERT must be provable, got: %s", rep.Mem.Reason)
	}
	in := b.Inputs(tensor.NewRNG(5), b.MaxSize+64, 0.5) // out of range
	_, gr, err := c.GuardedRun(in, GuardOptions{})
	if err != nil {
		t.Fatalf("out-of-region run failed: %v", err)
	}
	if gr.RegionCacheHit {
		t.Error("out-of-region request must not hit the region plan")
	}
	if len(gr.Degradations) == 0 {
		t.Error("out-of-range extent should degrade via the fact check")
	}
	if st := c.Stats(); st.RegionHits != 0 {
		t.Errorf("RegionHits = %d, want 0", st.RegionHits)
	}
}

// TestInvalidateDropsProof pins that Invalidate clears the memoized
// verification, so mutated artifacts are never served from a stale proof:
// no proof is held afterwards, and the next request is served by a fresh
// one.
func TestInvalidateDropsProof(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, rep, err := CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mem.Proven {
		t.Skip("model not provable")
	}
	c.Invalidate()
	if c.verified.Load() != nil {
		t.Error("proof survived Invalidate")
	}
	before := Counters().VerifyRuns
	in := b.Inputs(tensor.NewRNG(7), b.MinSize, 0.5)
	_, gr, err := c.GuardedRun(in, GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.RegionCacheHit || Counters().VerifyRuns != before+1 {
		t.Errorf("request after Invalidate: region hit %v, verifier runs %d -> %d; want a hit on a re-run proof",
			gr.RegionCacheHit, before, Counters().VerifyRuns)
	}
	if rep2 := c.Verify(); rep2 == rep {
		t.Error("Verify after Invalidate returned the stale report")
	}
}

// TestVerifyInvalidateConcurrent hammers Verify/Invalidate/GuardedRun
// concurrently: the generation guard must never resurrect a proof
// dropped by Invalidate into the region fast path, and the run must be
// data-race free (the suite runs under -race in CI). Terminal state:
// after a final Verify, the proof serves again.
func TestVerifyInvalidateConcurrent(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, _, err := CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.Verify().Mem.ArenaSize == 0 {
		t.Fatal("expected a proven region plan for CodeBERT")
	}
	inputs := b.Inputs(tensor.NewRNG(7), 64, 0.5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch {
				case g == 0:
					c.Invalidate()
				case g == 1:
					c.Verify()
				default:
					if _, _, err := c.GuardedRun(inputs, GuardOptions{}); err != nil {
						t.Errorf("guarded run: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.Invalidate()
	if c.verified.Load() != nil {
		t.Fatal("proof survived Invalidate")
	}
	if rep := c.Verify(); !rep.Mem.Proven {
		t.Fatalf("re-verification failed: %s", rep.Mem.Reason)
	}
	if r := c.verified.Load(); r == nil || r.Mem.ArenaSize == 0 {
		t.Fatal("fresh proof not memoized")
	}
}
