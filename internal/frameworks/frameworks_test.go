package frameworks

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func compiled(t *testing.T, name string) *Compiled {
	t.Helper()
	b, ok := models.Get(name)
	if !ok {
		t.Fatalf("model %s missing", name)
	}
	c, err := Compile(b)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return c
}

func TestCompileAllModels(t *testing.T) {
	for _, b := range models.All() {
		if _, err := Compile(b); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

// Execute keeps nothing: a second call for one sample executes again
// (fresh event storage), and the trace counters, declared for the
// wall-clock benchmark, stay at zero.
func TestExecuteNeverMemoizes(t *testing.T) {
	c := compiled(t, "CodeBERT")
	s := workload.Fixed(c.Builder, 1, 64, 0.5, 7)[0]
	first, err := c.Execute(s, false, OrderPlanned)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Execute(s, false, OrderPlanned)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Trace.Events) == 0 || len(again.Trace.Events) != len(first.Trace.Events) {
		t.Fatalf("events = %d then %d, want the same non-zero count", len(first.Trace.Events), len(again.Trace.Events))
	}
	if &again.Trace.Events[0] == &first.Trace.Events[0] {
		t.Error("second Execute of one sample returned the first one's trace")
	}
	if st := c.Stats(); st.TraceHits != 0 || st.TraceMisses != 0 {
		t.Errorf("trace counters = %d hits, %d misses, want 0 and 0", st.TraceHits, st.TraceMisses)
	}
}

func TestOptBreakdownMonotoneMemory(t *testing.T) {
	c := compiled(t, "CodeBERT")
	dev := costmodel.SD888CPU
	s := workload.Fixed(c.Builder, 1, 128, 0.5, 5)[0]
	levels := []SoD2Options{
		{},
		{Fusion: true},
		{Fusion: true, SEP: true},
		{Fusion: true, SEP: true, DMP: true},
	}
	var prev int64 = 1 << 62
	var lats []float64
	for _, lv := range levels {
		r, err := NewSoD2(lv).Run(c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		if r.PeakMemBytes > prev {
			t.Errorf("level %+v memory %d > previous %d", lv, r.PeakMemBytes, prev)
		}
		prev = r.PeakMemBytes
		lats = append(lats, r.LatencyMS)
	}
	// Latency with all optimizations must beat no-opt.
	full, err := NewSoD2(FullSoD2()).Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if full.LatencyMS >= lats[0] {
		t.Errorf("full %.3f >= no-opt %.3f", full.LatencyMS, lats[0])
	}
}

func TestStaticFrozenFasterThanSoD2(t *testing.T) {
	c := compiled(t, "SkipNet")
	dev := costmodel.SD888CPU
	s := workload.Fixed(c.Builder, 1, 224, 1.0, 13)[0]
	full, err := NewSoD2(FullSoD2()).Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	staticOpts := FullSoD2()
	staticOpts.StaticFrozen = true
	static, err := NewSoD2(staticOpts).Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if static.LatencyMS >= full.LatencyMS {
		t.Errorf("static %.3f >= sod2 %.3f", static.LatencyMS, full.LatencyMS)
	}
	// Overhead should be modest (paper: 3–7%).
	overhead := full.LatencyMS/static.LatencyMS - 1
	if overhead > 0.25 {
		t.Errorf("overhead %.1f%% too large", overhead*100)
	}
}

func TestExecuteAllBranchesCostsMore(t *testing.T) {
	c := compiled(t, "BlockDrop")
	dev := costmodel.SD888CPU
	s := workload.Fixed(c.Builder, 1, 224, 0.2, 17)[0] // most blocks skipped
	pred, err := NewSoD2(FullSoD2()).Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	allOpts := FullSoD2()
	allOpts.ExecuteAllBranches = true
	all, err := NewSoD2(allOpts).Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if all.LatencyMS <= pred.LatencyMS {
		t.Errorf("execute-all %.3f <= predicated %.3f", all.LatencyMS, pred.LatencyMS)
	}
}

// TestMVCRegionVersionCounts pins the harness plans of every model,
// bodies included: the MVC version count and the static fusion group
// count (RaNet's 20 static groups include 9 from its If bodies). The
// MVC plan is built over the proven region, which narrows the version
// sets of hotspots whose shape regimes it rules out: region-free,
// CodeBERT, Conformer, StableDiffusion and SegmentAnything would plan
// 33, 30, 18 and 39 versions. MVC has no dtype axis, so an int8 compile
// plans exactly what a float32 one does.
func TestMVCRegionVersionCounts(t *testing.T) {
	want := map[string]struct{ versions, staticGroups int }{
		"CodeBERT": {29, 77}, "Conformer": {28, 67}, "StableDiffusion": {16, 50}, "SegmentAnything": {35, 83},
		"SkipNet": {18, 57}, "DGNet": {19, 40}, "ConvNet-AIG": {16, 56}, "RaNet": {7, 20}, "BlockDrop": {13, 46}, "YOLO-V6": {15, 38},
	}
	for _, format := range []tensor.DType{tensor.Float32, tensor.Int8} {
		total := 0
		for _, b := range models.All() {
			c, err := CompileSched(b, SchedConfig{Quant: QuantConfig{Format: format}})
			if err != nil {
				t.Fatal(err)
			}
			w := want[b.Name]
			if got := c.MVCPlan().TotalVersions; got != w.versions {
				t.Errorf("%s %v: %d MVC versions, want %d", b.Name, format, got, w.versions)
			}
			if got := len(c.FusionStatic().Groups); got != w.staticGroups {
				t.Errorf("%s %v: %d static fusion groups, want %d", b.Name, format, got, w.staticGroups)
			}
			total += c.MVCPlan().TotalVersions
		}
		if total != 196 {
			t.Errorf("%v: %d MVC versions over the ten models, want 196", format, total)
		}
	}
}
