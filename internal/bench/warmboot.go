package bench

import (
	"os"

	"repro/internal/artifact"
	"repro/internal/frameworks"
	"repro/internal/models"
)

// WarmBoot measures what the compiled-artifact store buys at startup:
// every model is cold-compiled through a fresh store (full pipeline +
// verification + crash-safe save), then booted a second time from the
// artifact (verify-on-load only — the SEP search is skipped). The table
// reports both boots and the speedup; the counters line proves the warm
// path did no planning work.
func (s *Suite) WarmBoot() error {
	dir, err := os.MkdirTemp("", "sod2-warmboot-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(dir)
	if err != nil {
		return err
	}

	s.printf("Warm boot: cold compile+save vs artifact load+verify-on-load (ms)\n")
	s.printf("%-18s %10s %10s %9s %14s\n", "MODEL", "COLD", "WARM", "SPEEDUP", "WARM VERIFY")
	before := frameworks.Counters()
	var coldTotal, warmTotal float64
	for _, b := range models.All() {
		_, _, cold, err := frameworks.CompileWithStore(b, st, "bench")
		if err != nil {
			return err
		}
		_, _, warm, err := frameworks.CompileWithStore(b, st, "bench")
		if err != nil {
			return err
		}
		if !warm.Warm {
			s.printf("%-18s second boot was not warm (fallback: %v)\n", b.Name, warm.CorruptFallback)
			continue
		}
		speedup := 0.0
		if warm.BootMS > 0 {
			speedup = cold.BootMS / warm.BootMS
		}
		s.printf("%-18s %10.2f %10.2f %8.1fx %12.2f\n",
			b.Name, cold.BootMS, warm.BootMS, speedup, warm.VerifyMS)
		coldTotal += cold.BootMS
		warmTotal += warm.BootMS
	}
	after := frameworks.Counters()
	overall := 0.0
	if warmTotal > 0 {
		overall = coldTotal / warmTotal
	}
	s.printf("%-18s %10.2f %10.2f %8.1fx\n", "TOTAL", coldTotal, warmTotal, overall)
	s.printf("warm path work: %d plan searches (cold path ran %d); %d verifier runs total (every load is re-proven)\n",
		after.PlanSearches-before.PlanSearches-uint64(len(models.All())),
		len(models.All()), after.VerifyRuns-before.VerifyRuns)
	return nil
}
