package frameworks

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/models"
	"repro/internal/tensor"
)

// runAt executes one deterministic sample at a specific dynamic extent.
func runAt(t *testing.T, c *Compiled, seed uint64, size int64) map[string]*tensor.Tensor {
	t.Helper()
	inputs := c.Builder.Inputs(tensor.NewRNG(seed), size, 0.5)
	res, _, err := c.GuardedRun(inputs, GuardOptions{})
	if err != nil {
		t.Fatalf("%s: guarded run at size %d: %v", c.Builder.Name, size, err)
	}
	return res.Outputs
}

// TestSpecializeDifferentialAllModels is the specializer's acceptance
// suite: every evaluation model is compiled twice — once with
// specialization disabled, once with the default region-proven
// specialization — and both compiles must produce bit-identical outputs
// across in-region shapes.
func TestSpecializeDifferentialAllModels(t *testing.T) {
	specialized := 0
	for _, b := range models.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			plain, err := CompileSched(b, SchedConfig{NoSpecialize: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.SpecCert != nil {
				t.Fatal("NoSpecialize compile must not carry a certificate")
			}
			spec, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			if spec.SpecCert == nil {
				t.Fatal("default compile must run the specializer")
			}
			if spec.OrigGraph == nil {
				t.Fatal("specialized compile must retain the original graph")
			}
			if !spec.SpecCert.Empty() &&
				(len(spec.SpecCert.Removed) > 0 || len(spec.SpecCert.Narrowings) > 0) {
				specialized++
			}

			sizes := []int64{b.MinSize, b.MaxSize}
			if mid := b.MinSize + (b.MaxSize-b.MinSize)/(2*b.SizeStep)*b.SizeStep; mid > b.MinSize && mid < b.MaxSize {
				sizes = append(sizes, mid)
			}
			for _, size := range sizes {
				want := runAt(t, plain, 11, size)
				got := runAt(t, spec, 11, size)
				requireBitIdentical(t, b.Name, got, want)
			}
		})
	}
	// The paper's claim needs teeth: specialization must actually narrow
	// or shrink something on a meaningful share of the fleet.
	if specialized < 3 {
		t.Errorf("only %d models gained removals or MVC narrowings, want >= 3", specialized)
	}
}

// TestWarmBootReplaysSpecialization pins the zero-analysis warm path:
// a warm load must replay the persisted certificate (SpecReplays moves)
// without running the specializer's abstract interpretation
// (Specializations does not move), and must serve under the same
// certificate digest — so shape-family keys agree across boots.
func TestWarmBootReplaysSpecialization(t *testing.T) {
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range models.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cold, _, coldInfo, err := CompileWithStore(b, st, "cpu")
			if err != nil {
				t.Fatal(err)
			}
			if coldInfo.Warm {
				t.Fatal("first boot must be cold")
			}
			if cold.SpecCert == nil {
				t.Fatal("cold compile must specialize")
			}

			before := Counters()
			warm, _, warmInfo, err := CompileWithStore(b, st, "cpu")
			if err != nil {
				t.Fatal(err)
			}
			after := Counters()
			if !warmInfo.Warm {
				t.Fatalf("second boot should be warm, got %+v", warmInfo)
			}
			if after.Specializations != before.Specializations {
				t.Errorf("warm boot re-ran the specializer analysis (%d -> %d)",
					before.Specializations, after.Specializations)
			}
			if warm.SpecCert != nil && after.SpecReplays != before.SpecReplays+1 {
				t.Errorf("SpecReplays %d -> %d, want +1", before.SpecReplays, after.SpecReplays)
			}

			if (warm.SpecCert == nil) != (cold.SpecCert == nil) {
				t.Fatalf("certificate presence differs across boots (cold %v, warm %v)",
					cold.SpecCert != nil, warm.SpecCert != nil)
			}
			if warm.specDigest != cold.specDigest {
				t.Errorf("certificate digest drifted across boots: cold %s, warm %s",
					cold.specDigest, warm.specDigest)
			}
			if warm.SpecCert != nil {
				if got, want := warm.SpecCert.Digest(), cold.SpecCert.Digest(); got != want {
					t.Errorf("replayed certificate digests %s, cold %s", got, want)
				}
			}

			// And the replayed graph serves identically.
			requireBitIdentical(t, b.Name, runOnce(t, warm, 7), runOnce(t, cold, 7))
		})
	}
}

// TestSpecFallbackStrictContract: a compile whose certificate is
// region-dependent must refuse (Strict) or degrade (non-strict) when the
// inputs leave the proven region. Real evaluation models keep their
// control flow data-dependent, so their certificates are never
// region-dependent; assert that invariant here so a future model change
// that breaks it gets a deliberate look at the fallback path.
func TestSpecFallbackStrictContract(t *testing.T) {
	for _, b := range models.All() {
		c, err := Compile(b)
		if err != nil {
			t.Fatal(err)
		}
		if c.SpecCert.RegionDependent() {
			// The fallback gate must then reject out-of-region inputs; the
			// in-region path is covered by the differential suite.
			continue
		}
		// Region-independent certificates never need the fallback, in
		// the region or out of it.
		for _, size := range []int64{b.MinSize, b.MaxSize + b.SizeStep} {
			_, gr, err := c.GuardedRun(b.Inputs(tensor.NewRNG(5), size, 0.5), GuardOptions{})
			if err != nil {
				t.Fatalf("%s@%d: %v", b.Name, size, err)
			}
			if gr.SpecFallback {
				t.Errorf("%s@%d: region-independent certificate demanded a fallback", b.Name, size)
			}
		}
	}
}
