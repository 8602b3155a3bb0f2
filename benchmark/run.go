package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/models"
)

// workloadResult is one run of one workload: the entry of a result file.
type workloadResult struct {
	Workload string `json:"workload"`
	// Traced says which run this is: false reports the end-to-end
	// metrics, true the per-layer metrics.
	Traced  bool `json:"traced"`
	Laps    int  `json:"laps"`
	Clients int  `json:"clients"`
	Pool    int  `json:"pool"`
	// TracedEntries is the size of the strided subset the traced run
	// called every layer on (0 in an untraced run).
	TracedEntries int `json:"traced_entries,omitempty"`
	// Samples is the number of latency samples behind the percentiles.
	Samples  int              `json:"latency_samples"`
	Requests verdict          `json:"requests"`
	Correct  bool             `json:"correct"`
	Metrics  map[string]value `json:"metrics"`
	// Entries holds, for a measured run, each pool entry's median latency
	// across laps and the tier it was served on: the rows behind
	// latency_geomean_ms.
	Entries []entryResult `json:"entries,omitempty"`
	// Notes carries readings that are not metrics of this run's table
	// (an untraced run's generator time and oracle counts).
	Notes map[string]value `json:"notes,omitempty"`
}

// entryResult is one pool entry's row of a measured run.
type entryResult struct {
	Key      string  `json:"key"`
	MedianMS float64 `json:"median_ms"`
	Tier     string  `json:"tier"`
}

// generate builds the workload's pool and warm-up requests and reports
// the generator time (gen_s): input synthesis and wire encoding, kept
// out of every other timer.
func generate(w workload, seed uint64, builders []*models.Builder) ([]entry, map[string]warmup, float64, error) {
	start := time.Now()
	pool, err := buildPool(seed, w)
	if err != nil {
		return nil, nil, 0, err
	}
	warm, err := prepareWarmups(w, builders)
	if err != nil {
		return nil, nil, 0, err
	}
	return pool, warm, time.Since(start).Seconds(), nil
}

// runMeasured is the untraced run: set-up, repeated so that setup_s is a
// median and one cold first set-up (page faults, heap growth) does not
// decide it; the measured laps with the workload's clients on the last
// system set up; then the output check.
func runMeasured(w workload, seed uint64, seconds int, goldenDir string) (*workloadResult, error) {
	builders, err := workloadBuilders(w)
	if err != nil {
		return nil, err
	}
	pool, warm, genS, err := generate(w, seed, builders)
	if err != nil {
		return nil, err
	}
	var sys *system
	var setups []float64
	for i := 0; i < w.SetupRepeats; i++ {
		if sys != nil {
			if err := sys.tearDown(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every set-up starts from a collected heap
		var d time.Duration
		if sys, d, err = setUp(w, builders, warm); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	laps := w.lapsFor(seconds)
	rec := runLaps(sys, pool, laps, w.Clients)

	or, sums, err := checkOracle(sys, pool, rec.first)
	if terr := sys.tearDown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	if goldenDir != "" {
		err = writeGolden(goldenDir, w, sums)
	} else {
		or.golden, err = checkGolden(w, seed, sums)
	}
	if err != nil {
		return nil, err
	}
	v := judge(pool, rec, or)
	raw, samples := endToEndMetrics(rec, v, setups)
	if !supportsPercentile(samples, 90) {
		return nil, fmt.Errorf("%s: %d latency samples cannot support a p90 (%d beyond, need %d)",
			w.Name, samples, samplesBeyond(samples, 90), minBeyond)
	}
	entries := make([]entryResult, len(pool))
	for i, lats := range rec.latencies() {
		entries[i] = entryResult{Key: pool[i].Key, MedianMS: median(lats), Tier: rec.cells[i][0].tier.String()}
	}
	return &workloadResult{
		Workload: w.Name, Laps: laps, Clients: w.Clients, Pool: len(pool),
		Samples: samples, Requests: v, Correct: v.Failed == 0,
		Metrics: readings(endToEnd, raw), Entries: entries,
		Notes: map[string]value{
			"error_rate":            {float64(v.Failed) / float64(v.Attempted), "ratio"},
			"gen_s":                 {genS, "s"},
			"wall_s":                {rec.wall.Seconds(), "s"},
			"oracle.checked":        {float64(or.checked), "count"},
			"oracle.bit_identical":  {float64(or.bitIdentical), "count"},
			"oracle.max_abs_diff":   {or.maxAbsDiff, "abs"},
			"oracle.golden_checked": {float64(or.golden), "count"},
			"quant.max_abs_drift":   {or.maxDrift, "abs"},
		},
	}, nil
}
