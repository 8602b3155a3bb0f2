// Package bench is the experiment harness: one driver per table and
// figure of the paper's evaluation (§5), each printing the same rows or
// series the paper reports. Absolute numbers come from the analytic
// device model over real executed traces (DESIGN.md §2), so the check is
// the *shape* of each result: who wins, by roughly what factor, and
// where the crossovers fall.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/costmodel"
	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/workload"
)

// Options configure a suite run.
type Options struct {
	// Samples per model (the paper uses 50; default 6 keeps the full
	// suite near a minute on a laptop — raise it for tighter numbers).
	Samples int
	Seed    uint64
	Out     io.Writer
}

// Suite caches compiled models across experiments.
type Suite struct {
	opts     Options
	compiled map[string]*frameworks.Compiled
}

// NewSuite builds a suite.
func NewSuite(opts Options) *Suite {
	if opts.Samples <= 0 {
		opts.Samples = 6
	}
	if opts.Seed == 0 {
		opts.Seed = 20240427
	}
	return &Suite{opts: opts, compiled: map[string]*frameworks.Compiled{}}
}

func (s *Suite) model(name string) (*frameworks.Compiled, error) {
	if c, ok := s.compiled[name]; ok {
		return c, nil
	}
	b, ok := models.Get(name)
	if !ok {
		return nil, fmt.Errorf("bench: unknown model %q", name)
	}
	c, err := frameworks.Compile(b)
	if err != nil {
		return nil, err
	}
	s.compiled[name] = c
	return c, nil
}

func (s *Suite) printf(format string, args ...interface{}) {
	fmt.Fprintf(s.opts.Out, format, args...)
}

// Experiments lists the runnable experiment IDs in paper order.
func Experiments() []string {
	return []string{"table1", "table5", "table6", "table7",
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "memopt", "rdpablate", "warmboot", "quant"}
}

// Run dispatches one experiment by ID ("all" runs everything). After
// each experiment the cached models' runtime memoization (executor
// traces, verified plans) is invalidated so results cannot leak from
// one experiment into the next.
func (s *Suite) Run(id string) error {
	err := s.run(id)
	s.invalidateAll()
	return err
}

// invalidateAll drops runtime caches on every compiled model the suite
// holds.
func (s *Suite) invalidateAll() {
	for _, c := range s.compiled {
		c.Invalidate()
	}
}

func (s *Suite) run(id string) error {
	switch id {
	case "table1":
		return s.Table1()
	case "table5":
		return s.Table5()
	case "table6":
		return s.Table6()
	case "table7":
		return s.Table7()
	case "fig5":
		return s.Fig5()
	case "fig6":
		return s.Fig6()
	case "fig7":
		return s.Fig7()
	case "fig8":
		return s.Fig8()
	case "fig9":
		return s.Fig9()
	case "fig10":
		return s.Fig10()
	case "fig11":
		return s.Fig11()
	case "fig12":
		return s.Fig12()
	case "fig13":
		return s.Fig13()
	case "memopt":
		return s.MemPlanAblation()
	case "rdpablate":
		return s.RDPAblation()
	case "warmboot":
		return s.WarmBoot()
	case "quant":
		return s.Quant()
	case "all":
		for _, e := range Experiments() {
			if err := s.Run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", id, Experiments())
	}
}

// aggregate runs an engine over samples and reduces to min/max/avg.
type agg struct {
	minLat, maxLat, sumLat float64
	minMem, maxMem         int64
	sumMem                 float64
	n                      int
}

func (a *agg) add(r frameworks.Report) {
	if a.n == 0 {
		a.minLat, a.maxLat = r.LatencyMS, r.LatencyMS
		a.minMem, a.maxMem = r.PeakMemBytes, r.PeakMemBytes
	}
	if r.LatencyMS < a.minLat {
		a.minLat = r.LatencyMS
	}
	if r.LatencyMS > a.maxLat {
		a.maxLat = r.LatencyMS
	}
	if r.PeakMemBytes < a.minMem {
		a.minMem = r.PeakMemBytes
	}
	if r.PeakMemBytes > a.maxMem {
		a.maxMem = r.PeakMemBytes
	}
	a.sumLat += r.LatencyMS
	a.sumMem += float64(r.PeakMemBytes)
	a.n++
}

func (a *agg) avgLat() float64 { return a.sumLat / float64(a.n) }
func (a *agg) avgMem() float64 { return a.sumMem / float64(a.n) }

// runEngine aggregates an engine over the samples (engine reset first).
func runEngine(e frameworks.Engine, c *frameworks.Compiled, samples []workload.Sample, dev costmodel.Device) (agg, error) {
	e.Reset()
	var a agg
	for _, smp := range samples {
		r, err := e.Run(c, smp, dev)
		if err != nil {
			return a, err
		}
		a.add(r)
	}
	return a, nil
}

func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// sortedModelNames gives Table 5 ordering.
func tableModels() []string {
	return []string{"StableDiffusion", "SegmentAnything", "Conformer", "CodeBERT",
		"YOLO-V6", "SkipNet", "DGNet", "ConvNet-AIG", "RaNet", "BlockDrop"}
}

var _ = sort.Strings
