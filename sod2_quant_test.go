package sod2

import (
	"testing"

	"repro/internal/frameworks"
	"repro/internal/tensor"
)

// TestQuantAllModelsServeInt8 is the end-to-end acceptance sweep: every
// evaluation model compiles with int8 weight storage, keeps exactly the
// static memory-proof status of its float32 compile (quantization is a
// storage change, never a plan change), and serves its smallest input
// within the accuracy-drift contract — the drift verification re-run is
// on, so a contract violation would degrade the tier and fail the test.
func TestQuantAllModelsServeInt8(t *testing.T) {
	for _, b := range Models() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			fc, frep, err := CompileVerified(b)
			if err != nil {
				t.Fatalf("f32 compile: %v", err)
			}
			qc, qrep, err := CompileVerifiedSched(b, SchedConfig{
				Quant: QuantConfig{Format: Int8},
			})
			if err != nil {
				t.Fatalf("int8 compile: %v", err)
			}
			if qrep.Mem.Proven != frep.Mem.Proven {
				t.Fatalf("memory proof changed under quantization: f32=%v int8=%v (%s)",
					frep.Mem.Proven, qrep.Mem.Proven, qrep.Mem.Reason)
			}
			q := qc.Quant()
			if q == nil {
				t.Fatal("quantized compile reports no quant pass")
			}
			t.Logf("quant: %d packed, %d skipped, bytes %d -> %d (ratio %.3f)",
				q.Tensors, q.Skipped, q.FloatBytes, q.QuantBytes, q.BytesRatio())
			if q.Tensors > 0 {
				if got := qc.WeightBytes(); got >= fc.WeightBytes() {
					t.Fatalf("quantized weights not smaller: %d >= %d", got, fc.WeightBytes())
				}
			}
			s := NewSample(b, b.MinSize, 0.5, 7)
			out, rep, err := qc.InferGuarded(s.Inputs, GuardOptions{VerifyDrift: true})
			if err != nil {
				t.Fatalf("int8 serve: %v", err)
			}
			if len(out) == 0 {
				t.Fatal("no outputs")
			}
			for _, d := range rep.Degradations {
				if d.To == TierFloat32 {
					t.Fatalf("clean int8 serve violated its drift contract: %+v", rep.Degradations)
				}
			}
		})
	}
}

// TestQuantLiveBytesHalved pins the memory win on the transformer
// models. Weight-only quantization leaves activations in float32, so
// the provable 0.5x bar applies to the weight-resident live bytes —
// the fixed share of serving memory that the admission ledger charges
// for the model itself; total live bytes (weights + the planned
// activation arena at the smallest input) must still strictly shrink.
func TestQuantLiveBytesHalved(t *testing.T) {
	for _, name := range []string{"CodeBERT", "StableDiffusion"} {
		t.Run(name, func(t *testing.T) {
			b, err := BuildModel(name)
			if err != nil {
				t.Fatal(err)
			}
			live := func(c *Compiled) int64 {
				s := NewSample(b, b.MinSize, 0.5, 7)
				_, rep, err := c.Infer(s.Inputs)
				if err != nil || rep.FallbackTier != TierPlanned {
					t.Fatalf("arena serve: tier %v, err %v", rep.FallbackTier, err)
				}
				return c.WeightBytes() + rep.PeakMemBytes
			}
			fc, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			qc, _, err := CompileVerifiedSched(b, SchedConfig{
				Quant: QuantConfig{Format: Int8},
			})
			if err != nil {
				t.Fatal(err)
			}
			if float64(qc.WeightBytes()) > 0.5*float64(fc.WeightBytes()) {
				t.Fatalf("int8 weight bytes %d > 0.5 * f32 %d", qc.WeightBytes(), fc.WeightBytes())
			}
			f32, int8 := live(fc), live(qc)
			t.Logf("weights: f32=%d int8=%d (ratio %.3f); live: f32=%d int8=%d (ratio %.3f)",
				fc.WeightBytes(), qc.WeightBytes(),
				float64(qc.WeightBytes())/float64(fc.WeightBytes()),
				f32, int8, float64(int8)/float64(f32))
			if int8 >= f32 {
				t.Fatalf("int8 total live bytes %d not below f32 %d", int8, f32)
			}
		})
	}
}

// TestQuantArtifactRoundTrip proves quantized compiles persist and warm-
// boot: the packed bytes are stored verbatim (never re-quantized at
// load), the warm boot replays the same quant report, its outputs match
// the cold compile's, and the float32 variant of the same model lives
// under a distinct artifact key (no cache collision between dtypes).
func TestQuantArtifactRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	boot := func() (*Compiled, BootInfo) {
		c, _, info, err := frameworks.CompileWithStoreSched(b, st, "cpu", SchedConfig{Quant: QuantConfig{Format: Int8}})
		if err != nil {
			t.Fatal(err)
		}
		return &Compiled{inner: c}, info
	}
	cold, coldInfo := boot()
	if coldInfo.Warm || !coldInfo.Saved {
		t.Fatalf("first boot: %+v", coldInfo)
	}
	warm, warmInfo := boot()
	if !warmInfo.Warm {
		t.Fatalf("second boot not warm: %+v (corrupt=%v)", warmInfo, warmInfo.CorruptFallback)
	}
	cq, wq := cold.Quant(), warm.Quant()
	if wq == nil || wq.Tensors != cq.Tensors || wq.QuantBytes != cq.QuantBytes {
		t.Fatalf("warm quant report differs: cold=%+v warm=%+v", cq, wq)
	}
	if warm.WeightBytes() != cold.WeightBytes() {
		t.Fatalf("warm weight bytes %d != cold %d", warm.WeightBytes(), cold.WeightBytes())
	}
	s := NewSample(b, b.MinSize, 0.5, 7)
	coldOut, _, err := cold.Infer(s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	warmOut, _, err := warm.Infer(s.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, ref := range coldOut {
		if got := warmOut[name]; got == nil || !tensor.AllClose(ref, got, 0) {
			t.Fatalf("warm output %q differs from cold", name)
		}
	}
	// The float32 compile of the same model must not collide with the
	// quantized artifact: it misses the store and boots cold.
	f32, _, f32Info, err := CompileStored(b, st, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	if f32Info.Warm {
		t.Fatal("float32 boot warm-loaded the quantized artifact")
	}
	if f32.Quant() != nil {
		t.Fatalf("float32 boot carries a quant report: %+v", f32.Quant())
	}
}
