package frameworks

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/guard"
)

// -update rewrites the report-JSON golden instead of diffing it:
//
//	go test ./internal/frameworks/ -run TestReportJSONGolden -args -update
var updateGolden = flag.Bool("update", false, "rewrite the goldens in testdata/ (the proof digests only under a bumped schema version)")

// goldenReport exercises every wire field: a request degraded down the
// whole ladder, with phase timings.
func goldenReport() Report {
	return Report{
		LatencyMS:    12.375,
		PeakMemBytes: 1 << 20,
		Phases:       map[string]float64{"infer": 10.5, "shapefn": 0.375},
		FallbackTier: guard.TierFloat32,
		Degradations: []guard.Degradation{
			{Reason: "symbol L = 999 violates range", Kind: guard.KindFact,
				From: guard.TierPlanned, To: guard.TierDynamic},
			{Reason: "non-finite outputs", Kind: guard.KindQuant,
				From: guard.TierDynamic, To: guard.TierFloat32},
		},
		RegionCacheHit: true,
	}
}

// TestReportJSONGolden pins the wire schema byte for byte: HTTP clients
// and /statsz consumers parse these exact field names, so any drift is
// a protocol change that must be deliberate (-update) and documented.
func TestReportJSONGolden(t *testing.T) {
	got, err := json.MarshalIndent(goldenReport(), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "report_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with `go test -run TestReportJSONGolden -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON schema drifted (regenerate with -update if intended):\n got: %s\nwant: %s", got, want)
	}
}

// TestReportJSONRoundTrip proves the wire schema loses nothing a client
// needs: unmarshal(marshal(r)) == r for a fully populated report, for
// the zero report, and for a report served on each degraded tier after
// one step into it.
func TestReportJSONRoundTrip(t *testing.T) {
	reports := []Report{goldenReport(), {}}
	for _, tier := range []guard.Tier{guard.TierDynamic, guard.TierFloat32} {
		reports = append(reports, Report{FallbackTier: tier, Degradations: []guard.Degradation{
			{Reason: "step down", Kind: guard.KindMemPlan, From: guard.TierPlanned, To: tier}}})
	}
	for _, r := range reports {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back Report
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !reflect.DeepEqual(r, back) {
			t.Errorf("round trip drifted:\n got %+v\nwant %+v", back, r)
		}
	}
}

// TestReportJSONDeterministic re-marshals the same report and demands
// identical bytes — the phases map must not introduce ordering jitter.
func TestReportJSONDeterministic(t *testing.T) {
	a, _ := json.Marshal(goldenReport())
	for i := 0; i < 16; i++ {
		b, _ := json.Marshal(goldenReport())
		if !bytes.Equal(a, b) {
			t.Fatalf("marshal not deterministic:\n%s\nvs\n%s", a, b)
		}
	}
}
