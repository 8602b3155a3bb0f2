package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	sod2 "repro"
	"repro/internal/kernels"
	"repro/internal/models"
	"repro/internal/tensor"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 90, 90},
		{hundred, 50, 50},
		{hundred, 100, 100},
		{hundred, 0.5, 1},
		{[]float64{10, 20, 30, 40, 50}, 90, 50}, // ceil(4.5) = 5th
		{[]float64{10, 20, 30, 40, 50}, 40, 20}, // exactly the 2nd
		{[]float64{7}, 90, 7},
		{nil, 90, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, want %g", len(c.xs), c.p, got, c.want)
		}
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{100, 90, 10, true},
		{99, 90, 9, false}, // rank ceil(89.1) = 90
		{108, 90, 10, true},
		{128, 90, 12, true},
		{128, 99, 1, false},
		{1000, 99, 10, true},
	}
	for _, c := range cases {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
		if got := supportsPercentile(c.n, c.p); got != c.ok {
			t.Errorf("supportsPercentile(%d, %g) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
	// Every workload's nominal run supports the p90 it reports.
	for _, w := range workloads {
		if n := w.Laps * w.poolSize(); !supportsPercentile(n, 90) {
			t.Errorf("%s: %d requests cannot support a p90", w.Name, n)
		}
	}
}

func TestEntryMedianGeomean(t *testing.T) {
	// Entry medians 2, 8 and 4 (the even-length median averages the
	// middle pair; the empty entry is skipped): geomean = 4.
	got := entryMedianGeomean([][]float64{{1, 2, 100}, {8, 8, 8, 8}, {3, 5}, nil})
	if math.Abs(got-4) > 1e-12 {
		t.Fatalf("entryMedianGeomean = %g, want 4", got)
	}
	if g := geomean([]float64{1, 0, 3}); g != 0 {
		t.Fatalf("geomean with a zero = %g, want 0", g)
	}
}

func TestLapsFor(t *testing.T) {
	for _, w := range workloads {
		if got := w.lapsFor(nominalSeconds); got != w.Laps {
			t.Errorf("%s: lapsFor(nominal) = %d, want %d", w.Name, got, w.Laps)
		}
		for s := 1; s <= 60; s++ {
			laps := w.lapsFor(s)
			if laps < minLaps || laps*w.poolSize() < minRequests {
				t.Errorf("%s: lapsFor(%d) = %d laps × %d entries breaks the floor", w.Name, s, laps, w.poolSize())
			}
		}
	}
}

func sameTensors(a, b map[string]*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for name, ta := range a {
		tb := b[name]
		if tb == nil || digest(map[string]*tensor.Tensor{name: ta}) != digest(map[string]*tensor.Tensor{name: tb}) {
			return false
		}
	}
	return true
}

// The same (seed, model draw) yields the same sizes, gates and bytes no
// matter which workload asks; another seed yields other bytes on the
// same design points.
func TestGeneratorDeterminism(t *testing.T) {
	quant, _ := workloadByName("quant-int8")
	pool, err := buildPool(7, quant)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]entry{}
	for _, e := range pool {
		byKey[e.Key] = e
	}
	for _, src := range []string{"seq-attn", "cnn-gated"} {
		w, _ := workloadByName(src)
		for _, d := range w.Models {
			direct, err := drawModel(7, d)
			if err != nil {
				t.Fatal(err)
			}
			other, err := drawModel(8, d)
			if err != nil {
				t.Fatal(err)
			}
			for j, e := range direct {
				if q, shared := byKey[e.Key]; shared {
					if q.Size != e.Size || q.Gate != e.Gate || !sameTensors(q.Inputs, e.Inputs) {
						t.Errorf("%s: quant-int8 and %s disagree on the same draw", e.Key, src)
					}
				}
				if other[j].Size != e.Size || other[j].Gate != e.Gate {
					t.Errorf("%s: design point moved with the seed", e.Key)
				}
				if sameTensors(other[j].Inputs, e.Inputs) {
					t.Errorf("%s: seeds 7 and 8 produced identical bytes", e.Key)
				}
			}
		}
	}
	shared := 0
	for _, d := range quant.Models {
		shared += d.Draws
	}
	if shared != len(pool) {
		t.Fatalf("quant-int8 pool has %d entries, its draws sum to %d", len(pool), shared)
	}
	again, err := buildPool(7, quant)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		if pool[i].Key != again[i].Key || !sameTensors(pool[i].Inputs, again[i].Inputs) {
			t.Fatalf("pool entry %d differs between two builds with one seed", i)
		}
	}
}

func TestDesignPointsStayInContract(t *testing.T) {
	for _, w := range workloads {
		for _, d := range w.Models {
			b, ok := models.Get(d.Model)
			if !ok {
				t.Fatalf("%s: unknown model %s", w.Name, d.Model)
			}
			step := b.SizeStep
			if step <= 0 {
				step = 1
			}
			for _, p := range designPoints(b, d.Draws, d.Frac) {
				if p.Size < b.MinSize || p.Size > b.MaxSize || (p.Size-b.MinSize)%step != 0 {
					t.Errorf("%s/%s: size %d outside %d..%d step %d", w.Name, d.Model, p.Size, b.MinSize, b.MaxSize, step)
				}
				if p.Gate < 0 || p.Gate >= 1 {
					t.Errorf("%s/%s: gate %g outside [0,1)", w.Name, d.Model, p.Gate)
				}
			}
		}
	}
}

// A new op type with no class fails here instead of landing in "other".
func TestOpClassesCoverKernels(t *testing.T) {
	have := map[string]bool{}
	for _, op := range kernels.Types() {
		have[op] = true
		if _, ok := opClasses[op]; !ok {
			t.Errorf("op type %s has a kernel but no class in opClasses", op)
		}
	}
	var stale []string
	for op := range opClasses {
		if !have[op] {
			stale = append(stale, op)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("opClasses names op types with no kernel: %v", stale)
	}
}

// Every http-fleet body fits the server's default 8 MiB cap, and every
// off-plan entry really is served off the planned tier (and an
// in-contract entry of the same model on it).
func TestHTTPFleetPool(t *testing.T) {
	w, _ := workloadByName("http-fleet")
	pool, err := buildPool(goldenSeed, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != w.poolSize() || len(pool) != 44 {
		t.Fatalf("pool has %d entries, want 44", len(pool))
	}
	const maxBody = 8 << 20
	inPlan := map[string]*entry{}
	var off []*entry
	for i := range pool {
		e := &pool[i]
		if len(e.Body) == 0 || len(e.Body) >= maxBody {
			t.Errorf("%s: body of %d bytes is not under the %d-byte cap", e.Key, len(e.Body), maxBody)
		}
		if err := decodeBody(e.Body); err != nil {
			t.Errorf("%s: body does not decode: %v", e.Key, err)
		}
		if e.OffPlan {
			off = append(off, e)
		} else if cur := inPlan[e.Model]; cur == nil || e.Size < cur.Size {
			inPlan[e.Model] = e
		}
	}
	if len(off) != len(w.OffPlan) {
		t.Fatalf("%d off-plan entries, want %d", len(off), len(w.OffPlan))
	}
	for _, e := range off {
		b, _ := models.Get(e.Model)
		c, _, err := sod2.CompileVerified(b)
		if err != nil {
			t.Fatal(err)
		}
		sess := c.NewSession(sod2.SessionOptions{})
		_, rep, err := sess.InferConcurrentCtx(context.Background(), e.Inputs)
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		if rep.FallbackTier == sod2.TierPlanned {
			t.Errorf("%s: off-plan entry was served on the planned tier", e.Key)
		}
		_, rep, err = sess.InferConcurrentCtx(context.Background(), inPlan[e.Model].Inputs)
		if err != nil {
			t.Fatalf("%s: %v", inPlan[e.Model].Key, err)
		}
		if rep.FallbackTier != sod2.TierPlanned {
			t.Errorf("%s: in-contract entry was served on tier %v", inPlan[e.Model].Key, rep.FallbackTier)
		}
		if err := sess.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// BENCHMARK.json is the tables of this package, nothing more or less.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %d, nominalSeconds = %d", bm.RunSeconds, nominalSeconds)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bm.Paths)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.Name || bm.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q", i, bm.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, d)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
			}
			if len(d.Name) > 64 || len(d.Unit) > 16 {
				t.Errorf("%s: name or unit too long", d.Name)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayerDefs(), false)
	if n := len(perLayerDefs()); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

func TestCompareOutputs(t *testing.T) {
	ref := map[string]*tensor.Tensor{"y": tensor.FromFloats([]int64{3}, []float32{1, -2, 4})}
	same := map[string]*tensor.Tensor{"y": tensor.FromFloats([]int64{3}, []float32{1, -2, 4})}
	d, err := compareOutputs(ref, same)
	if err != nil || !d.bitIdentical || d.maxAbs != 0 {
		t.Fatalf("identical outputs: diff %+v, err %v", d, err)
	}
	// Tolerance is 1e-5 + 1e-4·4 = 4.1e-4.
	near := map[string]*tensor.Tensor{"y": tensor.FromFloats([]int64{3}, []float32{1.0003, -2, 4})}
	if d, err := compareOutputs(ref, near); err != nil || d.bitIdentical {
		t.Fatalf("within tolerance: diff %+v, err %v", d, err)
	}
	far := map[string]*tensor.Tensor{"y": tensor.FromFloats([]int64{3}, []float32{1.001, -2, 4})}
	if _, err := compareOutputs(ref, far); err == nil {
		t.Fatal("a 1e-3 error passed a 4.1e-4 tolerance")
	}
	nan := map[string]*tensor.Tensor{"y": tensor.FromFloats([]int64{3}, []float32{float32(math.NaN()), -2, 4})}
	if _, err := compareOutputs(ref, nan); err == nil {
		t.Fatal("a NaN output passed")
	}
	if _, err := compareOutputs(ref, map[string]*tensor.Tensor{}); err == nil {
		t.Fatal("a missing output passed")
	}
	if digest(ref) != digest(same) || digest(ref) == digest(near) {
		t.Fatal("digest does not separate equal from unequal outputs")
	}
}

func TestGoldenSummaryTolerance(t *testing.T) {
	vals := make([]float32, 64)
	for i := range vals {
		vals[i] = float32(i%7) - 3
	}
	g := summarize(tensor.FromFloats([]int64{64}, vals))
	if err := g.matches(g); err != nil {
		t.Fatal(err)
	}
	shift := func(rel float32) summary {
		v := append([]float32(nil), vals...)
		for i := range v {
			v[i] *= 1 + rel
		}
		return summarize(tensor.FromFloats([]int64{64}, v))
	}
	if err := g.matches(shift(1e-4)); err != nil {
		t.Fatalf("a 1e-4 relative shift failed the 1e-3 tolerance: %v", err)
	}
	if err := g.matches(shift(1e-2)); err == nil {
		t.Fatal("a 1e-2 relative shift passed the 1e-3 tolerance")
	}
	if err := g.matches(summarize(tensor.FromFloats([]int64{8, 8}, vals))); err == nil {
		t.Fatal("a reshaped output passed")
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, scale float64, failed int) string {
		rf := resultFile{Env: environment{Seed: 1, Seconds: nominalSeconds}}
		raw := map[string]float64{}
		for _, d := range endToEnd {
			raw[d.Name] = 100
		}
		raw["throughput_rps"] = 100 * scale
		rf.Runs = append(rf.Runs, workloadResult{Workload: "seq-attn",
			Requests: verdict{Attempted: 160, Failed: failed}, Metrics: readings(endToEnd, raw)})
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "throughput_rps" {
			bound = d.Bound
		}
	}
	base := mk("a.json", 1, 0)
	if err := compareFiles(base, mk("same.json", 1-bound/2, 0)); err != nil {
		t.Errorf("a throughput drop of half the bound failed: %v", err)
	}
	if err := compareFiles(base, mk("faster.json", 1.5, 0)); err != nil {
		t.Errorf("an improvement failed the comparison: %v", err)
	}
	if err := compareFiles(base, mk("slow.json", 1-1.5*bound, 0)); err == nil {
		t.Error("a throughput drop of one and a half bounds passed")
	}
	if err := compareFiles(base, mk("errors.json", 1, 1)); err == nil {
		t.Error("one more failed request passed")
	}
	d := metricDef{Better: higher}
	if got := worsening(d, 100, 90); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("worsening(higher, 100→90) = %g, want 0.1", got)
	}
	d.Better = lower
	if got := worsening(d, 100, 90); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("worsening(lower, 100→90) = %g, want -0.1", got)
	}
}
