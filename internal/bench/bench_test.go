package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/frameworks"
)

func runExp(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	s := NewSuite(Options{Samples: 2, Seed: 5, Out: &buf})
	if err := s.Run(id); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestExperimentIDs(t *testing.T) {
	if len(Experiments()) != 17 {
		t.Errorf("experiments = %d", len(Experiments()))
	}
	s := NewSuite(Options{Samples: 1, Out: &bytes.Buffer{}})
	if err := s.Run("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTable1Output(t *testing.T) {
	out := runExp(t, "table1")
	for _, want := range []string{"Table 1", "YOLO-V6", "Conformer", "CodeBERT", "ST(ms)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestTable7Output(t *testing.T) {
	out := runExp(t, "table7")
	for _, want := range []string{"Table 7", "ORT", "MNN", "TVM-N", "100th"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFig7Output(t *testing.T) {
	out := runExp(t, "fig7")
	if !strings.Contains(out, "rdp-lyr") || !strings.Contains(out, "StableDiffusion") {
		t.Errorf("fig7 output incomplete:\n%s", out)
	}
}

func TestFig8Output(t *testing.T) {
	out := runExp(t, "fig8")
	if !strings.Contains(out, "mixed-const(1)") || !strings.Contains(out, "RaNet") {
		t.Errorf("fig8 output incomplete:\n%s", out)
	}
}

func TestFig12Output(t *testing.T) {
	out := runExp(t, "fig12")
	if !strings.Contains(out, "CPU-ovhd") {
		t.Errorf("fig12 output incomplete:\n%s", out)
	}
}

func TestMemOptOutput(t *testing.T) {
	out := runExp(t, "memopt")
	if !strings.Contains(out, "peak-first") || !strings.Contains(out, "best-fit") {
		t.Errorf("memopt output incomplete:\n%s", out)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geomean = %f", g)
	}
	if geomean(nil) != 0 {
		t.Error("empty geomean")
	}
}

func reportOf(lat float64, mem int64) frameworks.Report {
	return frameworks.Report{LatencyMS: lat, PeakMemBytes: mem}
}

func TestAgg(t *testing.T) {
	var a agg
	a.add(reportOf(2, 100))
	a.add(reportOf(4, 50))
	if a.minLat != 2 || a.maxLat != 4 || a.avgLat() != 3 {
		t.Errorf("lat agg = %+v", a)
	}
	if a.minMem != 50 || a.maxMem != 100 || a.avgMem() != 75 {
		t.Errorf("mem agg = %+v", a)
	}
}

func TestSuiteModelCaching(t *testing.T) {
	s := NewSuite(Options{Samples: 1, Out: &bytes.Buffer{}})
	c1, err := s.model("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := s.model("CodeBERT")
	if c1 != c2 {
		t.Error("models should be cached")
	}
	if _, err := s.model("Missing"); err == nil {
		t.Error("unknown model should error")
	}
}
