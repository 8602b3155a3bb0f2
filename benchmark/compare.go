package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// exactCounts are per-layer counts the program makes itself: they repeat
// exactly between runs of one commit, so any drift past countTol in
// either direction is reported, not only a worsening.
var exactCounts = []string{
	"exec.ops_per_req", "exec.intermediate_kb_per_req", "exec.peak_live_kb", "exec.arena_high_water_kb",
}

const countTol = 0.02

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(raw, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func findRun(rf resultFile, name string, traced bool) *workloadResult {
	for i := range rf.Runs {
		if rf.Runs[i].Workload == name && rf.Runs[i].Traced == traced {
			return &rf.Runs[i]
		}
	}
	return nil
}

// worsening is how far b is worse than a, as a share of a, given the
// metric's direction (negative when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if d.Better == higher {
		rel = -rel
	}
	return rel
}

// compareFiles prints, per workload and end-to-end metric, both values,
// the relative difference and the bound, and fails when b is worse than
// a past any bound, when more requests failed in b, or when an exact
// count moved. It is what shows two runs of one commit repeat, and what
// gates a later change against its parent.
func compareFiles(pathA, pathB string) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s  commit %s  seed %d  %s  GOMAXPROCS %d\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.GoVersion, a.Env.GOMAXPROCS)
	fmt.Printf("b: %s  commit %s  seed %d  %s  GOMAXPROCS %d\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.GoVersion, b.Env.GOMAXPROCS)
	if a.Env.Seed != b.Env.Seed || a.Env.Seconds != b.Env.Seconds {
		return fmt.Errorf("runs differ in seed or run length (%d/%ds vs %d/%ds): not comparable",
			a.Env.Seed, a.Env.Seconds, b.Env.Seed, b.Env.Seconds)
	}
	bad, compared := 0, 0
	for _, w := range workloads {
		ra, rb := findRun(a, w.Name, false), findRun(b, w.Name, false)
		if ra != nil && rb != nil {
			compared++
			fmt.Printf("\n%s  (requests failed: a %d/%d, b %d/%d)\n", w.Name,
				ra.Requests.Failed, ra.Requests.Attempted, rb.Requests.Failed, rb.Requests.Attempted)
			if rb.Requests.Failed > ra.Requests.Failed {
				fmt.Printf("  REGRESSION: more failed requests\n")
				bad++
			}
			fmt.Printf("  %-22s %14s %14s %9s %7s\n", "metric", "a", "b", "b vs a", "bound")
			for _, d := range endToEnd {
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				rel := worsening(d, va, vb)
				mark := ""
				if rel > d.Bound {
					mark = "  REGRESSION"
					bad++
				}
				fmt.Printf("  %-22s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", d.Name, va, vb,
					100*(vb-va)/nonZero(va), 100*d.Bound, mark)
			}
		}
		ta, tb := findRun(a, w.Name, true), findRun(b, w.Name, true)
		if ta != nil && tb != nil {
			compared++
			for _, name := range exactCounts {
				va, vb := ta.Metrics[name].Value, tb.Metrics[name].Value
				if rel := (vb - va) / nonZero(va); rel > countTol || rel < -countTol {
					fmt.Printf("  %s traced: %s moved %+.2f%% (%g → %g)  REGRESSION\n", w.Name, name, 100*rel, va, vb)
					bad++
				}
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("the two files share no run")
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) past their bound", bad)
	}
	fmt.Println("\nall shared metrics within their bounds")
	return nil
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
