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

func TestSoD2BeatsBaselinesOnCodeBERT(t *testing.T) {
	c := compiled(t, "CodeBERT")
	samples := workload.Samples(c.Builder, 4, 11)
	dev := costmodel.SD888CPU

	sod2 := NewSoD2(FullSoD2())
	mnn := NewMNN()
	ort := NewORT()

	var sodLat, mnnLat, ortLat float64
	var sodMem, mnnMem, ortMem int64
	for _, s := range samples {
		r1, err := sod2.Run(c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := mnn.Run(c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := ort.Run(c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		sodLat += r1.LatencyMS
		mnnLat += r2.LatencyMS
		ortLat += r3.LatencyMS
		if r1.PeakMemBytes > sodMem {
			sodMem = r1.PeakMemBytes
		}
		if r2.PeakMemBytes > mnnMem {
			mnnMem = r2.PeakMemBytes
		}
		if r3.PeakMemBytes > ortMem {
			ortMem = r3.PeakMemBytes
		}
	}
	if sodLat >= mnnLat {
		t.Errorf("SoD2 latency %.2f >= MNN %.2f", sodLat, mnnLat)
	}
	if sodLat >= ortLat {
		t.Errorf("SoD2 latency %.2f >= ORT %.2f", sodLat, ortLat)
	}
	if sodMem > mnnMem {
		t.Errorf("SoD2 mem %d > MNN %d", sodMem, mnnMem)
	}
	if sodMem > ortMem {
		t.Errorf("SoD2 mem %d > ORT %d", sodMem, ortMem)
	}
}

func TestMNNReinitOnlyOnShapeChange(t *testing.T) {
	c := compiled(t, "CodeBERT")
	dev := costmodel.SD888CPU
	mnn := NewMNN()
	fixed := workload.Fixed(c.Builder, 2, 64, 0.5, 3)
	r1, err := mnn.Run(c, fixed[0], dev)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Phases["reinit-st"] == 0 {
		t.Error("first run should re-initialize")
	}
	r2, err := mnn.Run(c, fixed[1], dev)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Phases["reinit-st"] != 0 {
		t.Error("same shape should not re-initialize")
	}
	other := workload.Fixed(c.Builder, 1, 128, 0.5, 3)[0]
	r3, err := mnn.Run(c, other, dev)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Phases["reinit-st"] == 0 {
		t.Error("shape change should re-initialize")
	}
	// Re-initialization dominates the inference itself (Table 1's point).
	if r3.Phases["reinit-st"]+r3.Phases["reinit-alloc"] < r3.Phases["infer"] {
		t.Errorf("reinit %.2f+%.2f should exceed infer %.2f",
			r3.Phases["reinit-st"], r3.Phases["reinit-alloc"], r3.Phases["infer"])
	}
}

func TestSupportMatrixMirrorsPaper(t *testing.T) {
	dev := costmodel.SD888CPU
	gpu := costmodel.SD888GPU
	ort, mnn, tvmn := NewORT(), NewMNN(), NewTVMN()
	if ort.Supports("SegmentAnything", dev) || ort.Supports("Conformer", dev) {
		t.Error("ORT should not support SAM/Conformer")
	}
	if !mnn.Supports("Conformer", dev) || mnn.Supports("SegmentAnything", dev) {
		t.Error("MNN support wrong")
	}
	if !tvmn.Supports("YOLO-V6", dev) || tvmn.Supports("CodeBERT", dev) {
		t.Error("TVM-N support wrong")
	}
	if tvmn.Supports("YOLO-V6", gpu) {
		t.Error("TVM-N does not support mobile GPU")
	}
	if !NewSoD2(FullSoD2()).Supports("SegmentAnything", gpu) {
		t.Error("SoD2 supports everything")
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

func TestTVMNUsesMostMemory(t *testing.T) {
	c := compiled(t, "YOLO-V6")
	dev := costmodel.SD888CPU
	s := workload.Fixed(c.Builder, 1, 256, 0.5, 7)[0]
	sod2, _ := NewSoD2(FullSoD2()).Run(c, s, dev)
	tvmn, err := NewTVMN().Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if tvmn.PeakMemBytes < 4*sod2.PeakMemBytes {
		t.Errorf("TVM-N %d not ≫ SoD2 %d", tvmn.PeakMemBytes, sod2.PeakMemBytes)
	}
}

func TestTFLiteRematUnderBudget(t *testing.T) {
	c := compiled(t, "SkipNet")
	dev := costmodel.SD888CPU
	s := workload.Fixed(c.Builder, 1, 224, 0.8, 9)[0]
	free, err := NewTFLite(0).Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	budget := free.PeakMemBytes / 3
	capped := NewTFLite(budget)
	capped.Reset()
	r, err := capped.Run(c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakMemBytes > budget {
		t.Errorf("capped mem %d > budget %d", r.PeakMemBytes, budget)
	}
	if r.Phases["infer"] < free.Phases["infer"] {
		t.Errorf("capped run cannot be faster: %.3f vs %.3f", r.Phases["infer"], free.Phases["infer"])
	}
	// A budget three times below the natural peak is beyond what
	// rematerialization can absorb on these chains: paging must cost.
	if r.Phases["infer"] <= free.Phases["infer"]*1.05 {
		t.Errorf("infeasible budget should page: %.3f vs %.3f", r.Phases["infer"], free.Phases["infer"])
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
