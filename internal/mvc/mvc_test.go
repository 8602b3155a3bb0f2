package mvc

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/rdp"
	"repro/internal/tensor"
)

func TestRegimeOf(t *testing.T) {
	cases := []struct {
		m, n int64
		want Regime
	}{
		{4, 4, RegimeTiny},
		{1024, 16, RegimeFat},
		{16, 1024, RegimeSkinny},
		{256, 256, RegimeRegular},
	}
	for _, c := range cases {
		if got := RegimeOf(c.m, c.n); got != c.want {
			t.Errorf("RegimeOf(%d,%d) = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

func TestTuneRegimeDeterministicAndSane(t *testing.T) {
	for r := RegimeTiny; r <= RegimeRegular; r++ {
		v1 := TuneRegime(r)
		v2 := TuneRegime(r)
		if v1 != v2 {
			t.Errorf("regime %v: tuner not deterministic", r)
		}
		if v1.Efficiency < 1.0 || v1.Efficiency > 1.6 {
			t.Errorf("regime %v: efficiency %f out of range", r, v1.Efficiency)
		}
		if v1.Tile <= 0 || v1.Threads <= 0 {
			t.Errorf("regime %v: degenerate schedule %+v", r, v1)
		}
	}
	// The tuner should find regime-appropriate tiles: fat wants larger
	// tiles than skinny.
	if TuneRegime(RegimeFat).Tile <= TuneRegime(RegimeSkinny).Tile {
		t.Errorf("fat tile %d <= skinny tile %d",
			TuneRegime(RegimeFat).Tile, TuneRegime(RegimeSkinny).Tile)
	}
}

// buildMatMulGraph returns a graph with one MatMul of the given m/n dims.
func buildMatMulGraph(m, n lattice.Dim) (*graph.Graph, map[string]lattice.Info) {
	g := graph.New("mm")
	g.AddInput("a", tensor.Float32, lattice.Ranked(m, lattice.FromInt(64)))
	g.AddInput("b", tensor.Float32, lattice.Ranked(lattice.FromInt(64), n))
	g.Op("MatMul", "mm", []string{"a", "b"}, []string{"c"}, nil)
	g.AddOutput("c")
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		panic(err)
	}
	return g, res.Infos
}

func TestRDPPrunesVersions(t *testing.T) {
	// Fully known shape: exactly one version.
	g1, i1 := buildMatMulGraph(lattice.FromInt(256), lattice.FromInt(256))
	p1 := BuildPlan(g1, i1, 16, 1024)
	if len(p1.Hotspots) != 1 || len(p1.Hotspots[0].Versions) != 1 {
		t.Fatalf("known shape: %d versions", p1.TotalVersions)
	}
	if p1.Hotspots[0].Versions[0].Regime != RegimeRegular {
		t.Errorf("regime = %v", p1.Hotspots[0].Versions[0].Regime)
	}

	// Symbolic m with known n=64 and extents [16,1024]: multiple regimes
	// possible, but fewer than all four when bounds prune.
	g2, i2 := buildMatMulGraph(lattice.FromSym("M"), lattice.FromInt(64))
	p2 := BuildPlan(g2, i2, 16, 1024)
	if len(p2.Hotspots[0].Versions) < 2 {
		t.Errorf("symbolic m should need >1 version, got %d", len(p2.Hotspots[0].Versions))
	}

	// Tight symbolic bounds [200, 300] with n=256: regular only.
	g3, i3 := buildMatMulGraph(lattice.FromSym("M"), lattice.FromInt(256))
	p3 := BuildPlan(g3, i3, 200, 300)
	if len(p3.Hotspots[0].Versions) != 1 {
		t.Errorf("tight bounds should pin one regime, got %v", p3.Hotspots[0].PossibleRegimes)
	}
}

func TestSelectVersion(t *testing.T) {
	g, infos := buildMatMulGraph(lattice.FromSym("M"), lattice.FromSym("N"))
	p := BuildPlan(g, infos, 4, 2048)
	nv := p.Hotspots[0]
	v := nv.SelectVersion(2048, 16)
	if v.Regime != RegimeFat {
		t.Errorf("selected %v for fat shape", v.Regime)
	}
	v2 := nv.SelectVersion(4, 4)
	if v2.Regime != RegimeTiny {
		t.Errorf("selected %v for tiny shape", v2.Regime)
	}
}

func TestConvHotspot(t *testing.T) {
	g := graph.New("conv")
	g.AddInput("x", tensor.Float32, lattice.Ranked(
		lattice.FromInt(1), lattice.FromInt(16), lattice.FromSym("H"), lattice.FromSym("H")))
	g.AddInitializer("w", tensor.New(tensor.Float32, 32, 16, 3, 3))
	g.Op("Conv", "c", []string{"x", "w"}, []string{"y"}, map[string]graph.AttrValue{
		"pads": graph.IntsAttr(1, 1, 1, 1)})
	g.AddOutput("y")
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := BuildPlan(g, res.Infos, 32, 512)
	if len(p.Hotspots) != 1 {
		t.Fatalf("conv not recognized as hotspot")
	}
	// Cout=32 fixed, spatial H² in [1024, 262144]: skinny regime expected.
	found := false
	for _, r := range p.Hotspots[0].PossibleRegimes {
		if r == RegimeSkinny {
			found = true
		}
	}
	if !found {
		t.Errorf("conv regimes = %v, want skinny included", p.Hotspots[0].PossibleRegimes)
	}
}
