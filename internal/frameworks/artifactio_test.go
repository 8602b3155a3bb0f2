package frameworks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/faultinject"
	"repro/internal/models"
	"repro/internal/tensor"
)

// runOnce executes one deterministic sample on the planned tier and
// returns the outputs.
func runOnce(t *testing.T, c *Compiled, seed uint64) map[string]*tensor.Tensor {
	t.Helper()
	inputs := c.Builder.Inputs(tensor.NewRNG(seed), c.Builder.MinSize, 0.5)
	res, _, err := c.GuardedRun(inputs, GuardOptions{})
	if err != nil {
		t.Fatalf("%s: guarded run: %v", c.Builder.Name, err)
	}
	return res.Outputs
}

// requireBitIdentical asserts two output maps are exactly equal —
// same keys, same shapes, bit-identical float payloads.
func requireBitIdentical(t *testing.T, model string, got, want map[string]*tensor.Tensor) {
	t.Helper()
	if d := bitDiff(got, want); d != "" {
		t.Fatalf("%s: %s", model, d)
	}
}

// bitDiff describes the first way got differs from want ("" when they
// have the same keys, shapes and bit-identical float payloads). Unlike
// requireBitIdentical it is safe to call off the test's goroutine.
func bitDiff(got, want map[string]*tensor.Tensor) string {
	if len(got) != len(want) {
		return fmt.Sprintf("output count %d != %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Sprintf("output %q missing", name)
		}
		if !slices.Equal(g.Shape, w.Shape) {
			return fmt.Sprintf("%s: shape %v != %v", name, g.Shape, w.Shape)
		}
		if len(g.F) != len(w.F) {
			return fmt.Sprintf("%s: payload %d floats != %d", name, len(g.F), len(w.F))
		}
		for i := range w.F {
			// Bit-level comparison: signed zeros and NaN payloads count.
			if math.Float32bits(g.F[i]) != math.Float32bits(w.F[i]) {
				return fmt.Sprintf("%s: float %d differs: %v != %v", name, i, g.F[i], w.F[i])
			}
		}
	}
	return ""
}

// TestStoreRoundTripAllModels is the tentpole acceptance test: every
// evaluation model cold-compiles through the store, warm-boots from the
// saved artifact (verify-on-load), and produces outputs bit-identical to
// the in-process compile — while the warm boot provably skips the plan
// search (counters).
func TestStoreRoundTripAllModels(t *testing.T) {
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
			if coldInfo.Warm || !coldInfo.Saved {
				t.Fatalf("first boot should be a saved cold compile, got %+v", coldInfo)
			}
			want := runOnce(t, cold, 7)

			before := Counters()
			warm, _, warmInfo, err := CompileWithStore(b, st, "cpu")
			if err != nil {
				t.Fatal(err)
			}
			after := Counters()
			if !warmInfo.Warm {
				t.Fatalf("second boot should be warm, got %+v (fallback: %v)", warmInfo, warmInfo.CorruptFallback)
			}
			if after.PlanSearches != before.PlanSearches {
				t.Errorf("warm boot ran the SEP plan search (%d -> %d)", before.PlanSearches, after.PlanSearches)
			}
			if after.FullCompiles != before.FullCompiles {
				t.Errorf("warm boot ran a full compile (%d -> %d)", before.FullCompiles, after.FullCompiles)
			}
			if after.WarmLoads != before.WarmLoads+1 {
				t.Errorf("WarmLoads %d -> %d, want +1", before.WarmLoads, after.WarmLoads)
			}
			if after.VerifyRuns != before.VerifyRuns+1 {
				t.Errorf("verify-on-load must run exactly once (%d -> %d)", before.VerifyRuns, after.VerifyRuns)
			}

			got := runOnce(t, warm, 7)
			requireBitIdentical(t, b.Name, got, want)
		})
	}
	stats := st.Stats()
	if n := uint64(len(models.All())); stats.Saves != n || stats.Loads != n {
		t.Errorf("store stats = %+v, want %d saves and %d loads", stats, n, n)
	}
	if stats.Corrupt != 0 || stats.Quarantined != 0 {
		t.Errorf("clean round-trips quarantined something: %+v", stats)
	}
}

// bootModel is the corruption-suite fixture: one model saved to a fresh
// store, returning the store and key.
func bootModel(t *testing.T, name string) (*artifact.Store, *models.Builder, artifact.Key) {
	t.Helper()
	b, ok := models.Get(name)
	if !ok {
		t.Fatalf("model %q not registered", name)
	}
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, _, info, err := CompileWithStore(b, st, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Saved {
		t.Fatalf("cold boot did not save: %+v", info)
	}
	return st, b, info.Key
}

// requireColdFallback asserts a boot recompiled cold because of a typed
// corruption, with the bad file quarantined and serving still working.
func requireColdFallback(t *testing.T, st *artifact.Store, b *models.Builder, wantReason string) {
	t.Helper()
	requireColdFallbackSched(t, st, b, SchedConfig{}, wantReason)
}

// requireColdFallbackSched is requireColdFallback for a compile
// configuration, which also keys the artifact.
func requireColdFallbackSched(t *testing.T, st *artifact.Store, b *models.Builder, cfg SchedConfig, wantReason string) {
	t.Helper()
	c, rep, info, err := CompileWithStoreSched(b, st, "cpu", cfg)
	if err != nil {
		t.Fatalf("corrupt artifact must not fail the boot: %v", err)
	}
	if info.Warm {
		t.Fatal("boot from corrupt artifact claimed to be warm")
	}
	var ce *artifact.CorruptError
	if !errors.As(info.CorruptFallback, &ce) {
		t.Fatalf("CorruptFallback = %v, want *artifact.CorruptError", info.CorruptFallback)
	}
	if wantReason != "" && ce.Reason != wantReason {
		t.Errorf("reason = %q, want %q (%v)", ce.Reason, wantReason, ce)
	}
	if ce.QuarantinedAs == "" {
		t.Errorf("corrupt artifact was not quarantined: %v", ce)
	}
	if rep == nil || c == nil {
		t.Fatal("fallback compile returned nil")
	}
	runOnce(t, c, 3) // the model must still serve
	// The fallback re-saved a clean artifact: next boot is warm again.
	_, _, info2, err := CompileWithStoreSched(b, st, "cpu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Warm {
		t.Errorf("boot after fallback re-save should be warm, got %+v", info2)
	}
}

func TestBootBitFlipFallsBack(t *testing.T) {
	st, b, key := bootModel(t, "CodeBERT")
	fi, err := os.Stat(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.FlipBit(st.Path(key), (fi.Size()/2)*8); err != nil {
		t.Fatal(err)
	}
	requireColdFallback(t, st, b, "checksum")
}

func TestBootTruncationFallsBack(t *testing.T) {
	st, b, key := bootModel(t, "CodeBERT")
	fi, err := os.Stat(st.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.TruncateFile(st.Path(key), fi.Size()/3); err != nil {
		t.Fatal(err)
	}
	requireColdFallback(t, st, b, "torn")
}

func TestBootVersionSkewFallsBack(t *testing.T) {
	st, b, key := bootModel(t, "CodeBERT")
	skew := binary.LittleEndian.AppendUint32(nil, artifact.SchemaVersion+1)
	if err := faultinject.OverwriteAt(st.Path(key), artifact.VersionOffset, skew); err != nil {
		t.Fatal(err)
	}
	requireColdFallback(t, st, b, "version-skew")
}

// TestBootIgnoresOlderSchemaFile: a schema bump is a clean miss. An
// artifact written under the previous version (v7 when this binary
// writes v8) stays in the store directory unread: the boot compiles
// cold, saves the current version beside it, and quarantines nothing.
func TestBootIgnoresOlderSchemaFile(t *testing.T) {
	st, b, key := bootModel(t, "CodeBERT")
	cur := st.Path(key)
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	prev := artifact.SchemaVersion - 1
	old := strings.TrimSuffix(cur, fmt.Sprintf("__v%d.art", artifact.SchemaVersion)) + fmt.Sprintf("__v%d.art", prev)
	binary.LittleEndian.PutUint32(data[artifact.VersionOffset:], prev)
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(cur); err != nil {
		t.Fatal(err)
	}

	_, _, info, err := CompileWithStore(b, st, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if info.Warm || info.CorruptFallback != nil || !info.Saved {
		t.Fatalf("boot beside a v%d file = %+v, want a clean cold compile that saves", prev, info)
	}
	if _, err := os.Stat(cur); err != nil {
		t.Errorf("no v%d artifact saved: %v", artifact.SchemaVersion, err)
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, data) {
		t.Errorf("the v%d file was touched: %v", prev, err)
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".quarantine") {
			t.Errorf("quarantined %s", e.Name())
		}
	}
	if stats := st.Stats(); stats.Corrupt != 0 || stats.Quarantined != 0 {
		t.Errorf("store stats %+v: a miss is no corruption", stats)
	}
}

// TestBootProofMismatchFallsBack tampers with an integrity-clean
// artifact — the stored arena offsets are re-encoded with valid
// checksums but no longer match what the verifier proves — so only the
// verify-on-load cross-check can catch it.
func TestBootProofMismatchFallsBack(t *testing.T) {
	st, b, key := bootModel(t, "CodeBERT")
	man, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	if man.MemPlan == nil || len(man.MemPlan.Offsets) == 0 {
		t.Skip("model has no proven memory plan to tamper with")
	}
	for name := range man.MemPlan.Offsets {
		man.MemPlan.Offsets[name] += 64 // plausible but wrong placement
		break
	}
	if err := st.Save(key, man); err != nil {
		t.Fatal(err)
	}
	requireColdFallback(t, st, b, "proof-mismatch")
}

// TestBootRetiredQuantFormatFallsBack: an int8 artifact whose quant
// section names a format this binary no longer packs (the 4-bit
// "q4_0") is version skew, never a warm boot.
func TestBootRetiredQuantFormatFallsBack(t *testing.T) {
	b, ok := models.Get("CodeBERT")
	if !ok {
		t.Fatal("model CodeBERT not registered")
	}
	st, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SchedConfig{Quant: QuantConfig{Format: tensor.Int8}}
	_, _, info, err := CompileWithStoreSched(b, st, "cpu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Saved {
		t.Fatalf("cold boot did not save: %+v", info)
	}
	man, err := st.Load(info.Key)
	if err != nil {
		t.Fatal(err)
	}
	if man.Quant == nil || man.Quant.Format != "int8" {
		t.Fatalf("int8 artifact quant section = %+v", man.Quant)
	}
	man.Quant.Format = "q4_0"
	if err := st.Save(info.Key, man); err != nil {
		t.Fatal(err)
	}
	requireColdFallbackSched(t, st, b, cfg, "version-skew")
}

// TestBootGraphMismatchFallsBack serves an artifact whose execution
// order references nodes the (different) model does not have.
func TestBootGraphMismatchFallsBack(t *testing.T) {
	st, b, key := bootModel(t, "CodeBERT")
	man, err := st.Load(key)
	if err != nil {
		t.Fatal(err)
	}
	man.SEP.Order[0] = "no_such_node"
	if err := st.Save(key, man); err != nil {
		t.Fatal(err)
	}
	requireColdFallback(t, st, b, "graph-mismatch")
}

// TestWarmBootRegionServing: the warm-booted model must serve the
// shape-family fast path off its re-proven region exactly like the
// in-process compile would.
func TestWarmBootRegionServing(t *testing.T) {
	st, b, _ := bootModel(t, "CodeBERT")
	warm, rep, info, err := CompileWithStore(b, st, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Warm {
		t.Fatalf("want warm boot, got %+v", info)
	}
	if !rep.Mem.Proven {
		t.Skip("memory proof not held for this model")
	}
	inputs := b.Inputs(tensor.NewRNG(11), b.MinSize, 0.5)
	_, gr, err := warm.GuardedRun(inputs, GuardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !gr.RegionCacheHit {
		t.Error("warm-booted model did not serve from the region proof")
	}
}

// TestQuarantineEvidencePath: the quarantined file sits next to the
// store with a .quarantine suffix for post-mortem inspection.
func TestQuarantineEvidencePath(t *testing.T) {
	st, b, key := bootModel(t, "CodeBERT")
	if err := faultinject.TruncateFile(st.Path(key), 4); err != nil {
		t.Fatal(err)
	}
	_, _, info, err := CompileWithStore(b, st, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	var ce *artifact.CorruptError
	if !errors.As(info.CorruptFallback, &ce) {
		t.Fatal(info.CorruptFallback)
	}
	if !strings.Contains(filepath.Base(ce.QuarantinedAs), ".quarantine") {
		t.Errorf("quarantine path %q lacks the .quarantine marker", ce.QuarantinedAs)
	}
	if filepath.Dir(ce.QuarantinedAs) != st.Dir() {
		t.Errorf("quarantine left the store dir: %q", ce.QuarantinedAs)
	}
}

// TestArtifactBytesDeterministic: compiling a model is a function of the
// model, so the artifact it saves must not differ from one compile to
// the next. Five cold compiles of each model into five empty stores save
// byte-identical files — anything that follows map iteration order into
// the manifest (contract facts, say) shows up here.
func TestArtifactBytesDeterministic(t *testing.T) {
	for _, b := range models.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			var first []byte
			for i := 0; i < 5; i++ {
				st, err := artifact.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				_, _, info, err := CompileWithStore(b, st, "cpu")
				if err != nil || !info.Saved {
					t.Fatalf("compile %d: err %v, saved %v (%v)", i, err, info.Saved, info.SaveErr)
				}
				got, err := os.ReadFile(st.Path(info.Key))
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Fatalf("compile %d saved %d bytes differing from compile 0's %d", i, len(got), len(first))
				}
			}
		})
	}
}
