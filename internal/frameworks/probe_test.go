package frameworks

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/guard"
	"repro/internal/models"
	"repro/internal/rdp"
	"repro/internal/tensor"
)

// sampledProbe is the extent probe run on generated samples: each end
// of the sampling range bound from b.Inputs, values and all.
func sampledProbe(t *testing.T, b *models.Builder, ct *guard.Contract) extentProbe {
	t.Helper()
	p := extentProbe{min: b.MinSize, max: b.MaxSize, step: max(b.SizeStep, 1)}
	p.maxAlign = p.min + ((p.max-p.min)/p.step)*p.step
	var err error
	if p.lo, err = ct.BindInputs(b.Inputs(tensor.NewRNG(1), p.min, 0.5)); err != nil {
		t.Fatalf("%s: bind a sample of size %d: %v", b.Name, p.min, err)
	}
	if p.hi, err = ct.BindInputs(b.Inputs(tensor.NewRNG(1), p.maxAlign, 0.5)); err != nil {
		t.Fatalf("%s: bind a sample of size %d: %v", b.Name, p.maxAlign, err)
	}
	return p
}

// TestProbeAllocatesNoSample: the extent probe binds the declared input
// shapes without drawing a sample — one 640-px image alone is 4.9 MB —
// and derives the same bindings and region on every model as
// binding generated samples at both ends does.
func TestProbeAllocatesNoSample(t *testing.T) {
	const budget = 64 << 10
	for _, name := range []string{"SkipNet", "YOLO-V6"} {
		b, _ := models.Get(name)
		g := b.Build()
		res, err := rdp.Analyze(g, nil, rdp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// The least of three runs: TotalAlloc counts every goroutine's
		// allocations, and a stray one is no cost of the probe.
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			probeExtents(b, g, res.Infos)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: the probe allocates %d bytes", name, least)
		if least >= budget {
			t.Errorf("%s: the probe allocates %d bytes, want < %d", name, least, budget)
		}
	}
	for _, b := range models.All() {
		g := b.Build()
		res, err := rdp.Analyze(g, nil, rdp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := probeExtents(b, g, res.Infos)
		want := sampledProbe(t, b, guard.NewContract(g, res.Infos))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: probe %+v, want %+v from generated samples", b.Name, got, want)
		}
		if gr, wr := got.region(), want.region(); !reflect.DeepEqual(gr, wr) {
			t.Errorf("%s: region %v, want %v", b.Name, gr, wr)
		}
	}
}
