package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sod2 "repro"
	"repro/internal/guard"
	"repro/internal/tensor"
)

// cell is the record of one request: entry × lap. Each cell is written
// by exactly one client goroutine and read only after all have exited.
type cell struct {
	latMS   float64
	digest  uint64
	tier    sod2.Tier
	status  int
	batched int
	err     error
	fail    failKind
}

// lapsRecord is everything the measured laps observed.
type lapsRecord struct {
	cells [][]cell // [entry][lap]
	// first keeps each entry's first-lap outputs for the oracle check;
	// later laps are held to them by digest.
	first []map[string]*tensor.Tensor
	wall  time.Duration
	use   usage
	rssMB float64
}

// runLaps replays the pool for a fixed number of laps with the
// workload's closed-loop clients: each client takes the next request of
// the lap order as soon as its previous one completed.
func runLaps(sys *system, pool []entry, laps, clients int) *lapsRecord {
	rec := &lapsRecord{
		cells: make([][]cell, len(pool)),
		first: make([]map[string]*tensor.Tensor, len(pool)),
	}
	for i := range rec.cells {
		rec.cells[i] = make([]cell, laps)
	}
	total := int64(laps * len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup

	runtime.GC() // start every run from a collected heap
	before := readUsage()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				ei, lap := int(i)%len(pool), int(i)/len(pool)
				r := sys.do(&pool[ei])
				c := &rec.cells[ei][lap]
				c.latMS = float64(r.Latency.Nanoseconds()) / 1e6
				c.status, c.batched, c.err, c.fail = r.Status, r.Batched, r.Err, r.Fail
				if r.Err == nil {
					c.tier = r.Report.FallbackTier
					c.digest = digest(r.Outputs)
					if lap == 0 {
						rec.first[ei] = r.Outputs
					}
				}
			}
		}()
	}
	wg.Wait()
	rec.wall = time.Since(start)
	rec.use = readUsage().sub(before)
	rec.rssMB = peakRSSMiB()
	return rec
}

// latencies returns each entry's latencies (ms) of the requests that
// were served, one per lap.
func (rec *lapsRecord) latencies() [][]float64 {
	out := make([][]float64, len(rec.cells))
	for ei := range rec.cells {
		for _, c := range rec.cells[ei] {
			if c.err == nil {
				out[ei] = append(out[ei], c.latMS)
			}
		}
	}
	return out
}

// verdict counts a run's requests by outcome. A request fails when the
// transport failed, the status was not 200, the inference returned a
// typed error, the response did not match the oracle (or the entry's
// first-lap response), or it was served on an unexpected tier.
type verdict struct {
	Attempted  int `json:"attempted"`
	Succeeded  int `json:"succeeded"`
	Failed     int `json:"failed"`
	Transport  int `json:"transport_errors"`
	Non200     int `json:"non_200"`
	InferErr   int `json:"inference_errors"`
	Mismatched int `json:"mismatched"`
	WrongTier  int `json:"wrong_tier"`
	// Examples holds the first few failure descriptions.
	Examples []string `json:"examples,omitempty"`
}

func (v *verdict) example(format string, args ...any) {
	if len(v.Examples) < 5 {
		v.Examples = append(v.Examples, fmt.Sprintf(format, args...))
	}
}

// oracleReport is the outcome of checking a pool against the oracle.
type oracleReport struct {
	checked      int
	bitIdentical int
	maxAbsDiff   float64 // f32 workloads: worst |got-ref|
	maxDrift     float64 // int8 workload: worst |quant-ref|
	golden       int
	// bad[i] is non-nil when entry i's first-lap response is wrong.
	bad []error
}

// checkOracle computes every entry's reference and compares the
// first-lap response against it: within absTol+relTol·amp for float32
// compiles, under the compile's drift budget for int8 compiles. It also
// returns the summaries of the references, for the golden comparison.
// It runs after the measured laps, outside every timer.
func checkOracle(sys *system, pool []entry, first []map[string]*tensor.Tensor) (*oracleReport, map[string]map[string]summary, error) {
	or := &oracleReport{bad: make([]error, len(pool))}
	orc := newOracle(sys.builders)
	sums := make(map[string]map[string]summary, len(pool))
	for i := range pool {
		e := &pool[i]
		ref, err := orc.reference(e)
		if err != nil {
			return nil, nil, err
		}
		sums[e.Key] = summarizeOutputs(ref)
		or.checked++
		if first[i] == nil {
			continue // the request itself failed; already counted
		}
		q := sys.compiled[e.Model].Quant()
		if q != nil && q.Tensors > 0 {
			or.bad[i] = guard.CheckDrift(ref, first[i], q.Budget)
			if d := maxAbsDrift(ref, first[i]); d > or.maxDrift {
				or.maxDrift = d
			}
			continue
		}
		d, err := compareOutputs(ref, first[i])
		or.bad[i] = err
		if err == nil {
			if d.bitIdentical {
				or.bitIdentical++
			}
			if d.maxAbs > or.maxAbsDiff {
				or.maxAbsDiff = d.maxAbs
			}
		}
	}
	return or, sums, nil
}

// judge classifies every request of a run.
func judge(pool []entry, rec *lapsRecord, or *oracleReport) verdict {
	var v verdict
	for ei := range rec.cells {
		e := &pool[ei]
		for lap := range rec.cells[ei] {
			c := &rec.cells[ei][lap]
			v.Attempted++
			switch {
			case c.fail != failNone:
				switch c.fail {
				case failTransport:
					v.Transport++
				case failNon200:
					v.Non200++
				default:
					v.InferErr++
				}
				v.example("%s lap %d: %v", e.Key, lap, c.err)
			case or.bad[ei] != nil:
				v.Mismatched++
				v.example("%s lap %d: %v", e.Key, lap, or.bad[ei])
			case c.digest != rec.cells[ei][0].digest:
				v.Mismatched++
				v.example("%s lap %d: response differs from lap 0", e.Key, lap)
			case (c.tier != sod2.TierPlanned) != e.OffPlan:
				v.WrongTier++
				v.example("%s lap %d: served on tier %v (off-plan entry: %v)", e.Key, lap, c.tier, e.OffPlan)
			default:
				v.Succeeded++
			}
		}
	}
	v.Failed = v.Attempted - v.Succeeded
	return v
}

// endToEndMetrics derives the end-to-end readings from the measured laps.
func endToEndMetrics(rec *lapsRecord, v verdict, setups []float64) (map[string]float64, int) {
	perEntry := rec.latencies()
	var all []float64
	for _, lats := range perEntry {
		all = append(all, lats...)
	}
	sort.Float64s(all)
	n := float64(v.Attempted)
	return map[string]float64{
		"setup_s":            median(setups),
		"throughput_rps":     n / rec.wall.Seconds(),
		"latency_geomean_ms": entryMedianGeomean(perEntry),
		"latency_p90_ms":     percentile(all, 90),
		"cpu_ms_per_req":     float64(rec.use.cpu.Nanoseconds()) / 1e6 / n,
		"allocs_per_req":     float64(rec.use.mallocs) / n,
		"alloc_kb_per_req":   float64(rec.use.allocBytes) / 1024 / n,
		"peak_rss_mb":        rec.rssMB,
		"success_rate":       float64(v.Succeeded) / n,
	}, len(all)
}
