package bench

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/workload"
)

// harness is a Suite that prints nothing; tests price engines through
// it, so the engines reading one trace share its execution.
func harness() *Suite { return NewSuite(Options{Out: io.Discard}) }

// compiled is name's compile through h.
func compiled(t *testing.T, h *Suite, name string) *frameworks.Compiled {
	t.Helper()
	c, err := h.model(name)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return c
}

func TestSoD2BeatsBaselinesOnCodeBERT(t *testing.T) {
	h := harness()
	c := compiled(t, h, "CodeBERT")
	samples := workload.Samples(c.Builder, 4, 11)
	dev := costmodel.SD888CPU

	sod2 := NewSoD2(frameworks.FullSoD2())
	mnn := NewMNN()
	ort := NewORT()

	var sodLat, mnnLat, ortLat float64
	var sodMem, mnnMem, ortMem int64
	for _, s := range samples {
		r1, err := h.price(sod2, c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := h.price(mnn, c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		r3, err := h.price(ort, c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		sodLat += r1.LatencyMS
		mnnLat += r2.LatencyMS
		ortLat += r3.LatencyMS
		sodMem = max(sodMem, r1.PeakMemBytes)
		mnnMem = max(mnnMem, r2.PeakMemBytes)
		ortMem = max(ortMem, r3.PeakMemBytes)
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
	h := harness()
	c := compiled(t, h, "CodeBERT")
	dev := costmodel.SD888CPU
	mnn := NewMNN()
	fixed := workload.Fixed(c.Builder, 2, 64, 0.5, 3)
	r1, err := h.price(mnn, c, fixed[0], dev)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Phases["reinit-st"] == 0 {
		t.Error("first run should re-initialize")
	}
	r2, err := h.price(mnn, c, fixed[1], dev)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Phases["reinit-st"] != 0 {
		t.Error("same shape should not re-initialize")
	}
	other := workload.Fixed(c.Builder, 1, 128, 0.5, 3)[0]
	r3, err := h.price(mnn, c, other, dev)
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
	if !NewSoD2(frameworks.FullSoD2()).Supports("SegmentAnything", gpu) {
		t.Error("SoD2 supports everything")
	}
}

func TestTVMNUsesMostMemory(t *testing.T) {
	h := harness()
	c := compiled(t, h, "YOLO-V6")
	dev := costmodel.SD888CPU
	s := workload.Fixed(c.Builder, 1, 256, 0.5, 7)[0]
	sod2, _ := h.price(NewSoD2(frameworks.FullSoD2()), c, s, dev)
	tvmn, err := h.price(NewTVMN(), c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	if tvmn.PeakMemBytes < 4*sod2.PeakMemBytes {
		t.Errorf("TVM-N %d not ≫ SoD2 %d", tvmn.PeakMemBytes, sod2.PeakMemBytes)
	}
}

func TestTFLiteRematUnderBudget(t *testing.T) {
	h := harness()
	c := compiled(t, h, "SkipNet")
	dev := costmodel.SD888CPU
	s := workload.Fixed(c.Builder, 1, 224, 0.8, 9)[0]
	free, err := h.price(NewTFLite(0), c, s, dev)
	if err != nil {
		t.Fatal(err)
	}
	budget := free.PeakMemBytes / 3
	capped := NewTFLite(budget)
	capped.Reset()
	r, err := h.price(capped, c, s, dev)
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

// Every engine must be able to run every model it claims to support on
// every device it claims to support, and produce sane reports.
func TestAllEnginesAllSupportedModels(t *testing.T) {
	engs := []Engine{
		NewSoD2(frameworks.FullSoD2()), NewORT(), NewMNN(), NewMNNWithReinit(),
		NewTVMN(), NewTFLite(0),
	}
	devs := []costmodel.Device{costmodel.SD888CPU, costmodel.SD888GPU, costmodel.SD835CPU}
	h := harness()
	for _, b := range models.All() {
		c := compiled(t, h, b.Name)
		s := workload.Fixed(b, 1, b.MinSize, 0.5, 17)[0]
		for _, e := range engs {
			for _, dev := range devs {
				if !e.Supports(b.Name, dev) {
					continue
				}
				r, err := h.price(e, c, s, dev)
				if err != nil {
					t.Errorf("%s/%s/%s: %v", e.Name(), b.Name, dev.Name, err)
					continue
				}
				if r.LatencyMS <= 0 || r.PeakMemBytes <= 0 {
					t.Errorf("%s/%s/%s: degenerate report %+v", e.Name(), b.Name, dev.Name, r)
				}
			}
		}
	}
}

// Memory ordering invariant (Table 5's headline): for every model on
// every supported engine, SoD² uses the least memory.
func TestSoD2MinimalMemoryAcrossModels(t *testing.T) {
	dev := costmodel.SD888CPU
	sod := NewSoD2(frameworks.FullSoD2())
	baselines := []Engine{NewORT(), NewMNN(), NewTVMN()}
	h := harness()
	for _, b := range models.All() {
		c := compiled(t, h, b.Name)
		s := workload.Fixed(b, 1, b.MinSize, 0.5, 23)[0]
		rs, err := h.price(sod, c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range baselines {
			if !e.Supports(b.Name, dev) {
				continue
			}
			r, err := h.price(e, c, s, dev)
			if err != nil {
				t.Fatal(err)
			}
			if rs.PeakMemBytes > r.PeakMemBytes {
				t.Errorf("%s: SoD2 mem %d > %s mem %d", b.Name, rs.PeakMemBytes, e.Name(), r.PeakMemBytes)
			}
		}
	}
}

// Latency ordering invariant (Table 6's headline) on the CPU profile.
func TestSoD2FastestAcrossModels(t *testing.T) {
	dev := costmodel.SD888CPU
	sod := NewSoD2(frameworks.FullSoD2())
	baselines := []Engine{NewORT(), NewMNN(), NewTVMN()}
	h := harness()
	for _, b := range models.All() {
		c := compiled(t, h, b.Name)
		s := workload.Fixed(b, 1, b.MinSize, 0.5, 29)[0]
		rs, err := h.price(sod, c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range baselines {
			if !e.Supports(b.Name, dev) {
				continue
			}
			r, err := h.price(e, c, s, dev)
			if err != nil {
				t.Fatal(err)
			}
			if rs.LatencyMS >= r.LatencyMS {
				t.Errorf("%s: SoD2 %.3fms >= %s %.3fms", b.Name, rs.LatencyMS, e.Name(), r.LatencyMS)
			}
		}
	}
}

// The bench-side SoD² engine prices the Suite's kept trace exactly as
// frameworks.SoD2.Run prices its own execution — the entry point the
// wall-clock benchmark and `sod2 run` read — for every variant the
// experiments use.
func TestSoD2EnginePricesLikeRun(t *testing.T) {
	h := harness()
	c := compiled(t, h, "SkipNet")
	s := workload.Fixed(c.Builder, 1, 224, 0.8, 9)[0]
	dev := costmodel.SD888CPU
	for _, opts := range []frameworks.SoD2Options{
		frameworks.FullSoD2(),
		{},
		{Fusion: true, SEP: true},
		{Fusion: true, SEP: true, DMP: true, MVC: true, ExecuteAllBranches: true},
		{Fusion: true, DMP: true, MVC: true, StaticFrozen: true},
	} {
		e := NewSoD2(opts)
		got, err := h.price(e, c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		want, err := frameworks.NewSoD2(opts).Run(c, s, dev)
		if err != nil {
			t.Fatal(err)
		}
		if got.LatencyMS != want.LatencyMS || got.PeakMemBytes != want.PeakMemBytes || !reflect.DeepEqual(got.Phases, want.Phases) {
			t.Errorf("%s: engine priced %.4f ms, %d B, %v; Run reports %.4f ms, %d B, %v",
				e.Name(), got.LatencyMS, got.PeakMemBytes, got.Phases, want.LatencyMS, want.PeakMemBytes, want.Phases)
		}
	}
}

// The Suite executes each (model, sample, policy) trace once per
// experiment: a second request for one key is the first one's trace
// (the same event storage) and adds no entry; every policy is its own
// key; an anonymous sample (ID 0) executes every time and is never
// kept; and Run leaves the map empty after each experiment.
func TestExecuteMemoizesBySample(t *testing.T) {
	h := harness()
	c := compiled(t, h, "CodeBERT")
	samples := workload.Fixed(c.Builder, 2, 64, 0.5, 7)
	planned := Policy{Order: frameworks.OrderPlanned}
	first, err := h.trace(c, samples[0], planned)
	if err != nil {
		t.Fatal(err)
	}
	again, err := h.trace(c, samples[0], planned)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Events[0] != &first.Events[0] {
		t.Error("second trace of one sample re-executed")
	}
	if len(h.traces) != 1 {
		t.Errorf("kept traces = %d, want 1", len(h.traces))
	}
	for _, s := range samples {
		for _, p := range []Policy{planned, executeAll} {
			if _, err := h.trace(c, s, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(h.traces) != 4 {
		t.Errorf("kept traces = %d, want one per (sample, policy): 4", len(h.traces))
	}

	anon := workload.Sample{Size: 64, Inputs: samples[0].Inputs, ShapeKey: 64}
	a1, err := h.trace(c, anon, planned)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := h.trace(c, anon, planned)
	if err != nil {
		t.Fatal(err)
	}
	if &a1.Events[0] == &a2.Events[0] {
		t.Error("an anonymous sample's trace was reused")
	}
	if len(h.traces) != 4 {
		t.Errorf("an anonymous sample was kept: %d traces, want 4", len(h.traces))
	}

	if err := h.Run("fig12"); err != nil {
		t.Fatal(err)
	}
	if len(h.traces) != 0 {
		t.Errorf("%d traces survived the experiment, want none", len(h.traces))
	}
}

// BenchmarkCostModel measures the analytic cost model on one executed
// trace — the execution and the harness plans' build happen before the
// timer starts, so the loop body is the per-report work: trace walking
// with the MVC efficiency lookup through the harness plans' hotspot
// index (SoD2) and the pool-allocator arena simulation (ORT). These are
// the two paths the hotspot-index and single-sort rewrites target; the
// before/after numbers are recorded in EXPERIMENTS.md.
func BenchmarkCostModel(b *testing.B) {
	m, ok := models.Get("StableDiffusion")
	if !ok {
		b.Fatal("StableDiffusion missing")
	}
	c, err := frameworks.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	s := workload.Fixed(m, 1, m.MaxSize, 0.5, 3)[0]
	dev := costmodel.SD888CPU

	for _, e := range []struct {
		name string
		eng  Engine
	}{{"sod2-mvcEff", NewSoD2(frameworks.FullSoD2())}, {"ort-poolSim", NewORT()}} {
		b.Run(e.name, func(b *testing.B) {
			p := e.eng.Policy()
			res, err := c.Execute(s, p.AllBranches, p.Order)
			if err != nil {
				b.Fatal(err)
			}
			e.eng.Price(c, s, res.Trace, dev) // builds the harness plans
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.eng.Price(c, s, res.Trace, dev)
			}
		})
	}
}
