// Package bench is the experiment harness: one driver per table and
// figure of the paper's evaluation (§5), each printing the same rows or
// series the paper reports, and the engines they compare — SoD² and the
// ONNX Runtime, MNN, TVM-N and TFLite baselines — as pricing policies
// over real executed traces (engines.go). Absolute numbers come from the
// analytic device model over those traces (DESIGN.md §2), so the check
// is the *shape* of each result: who wins, by roughly what factor, and
// where the crossovers fall. The Suite executes each trace at most once
// per experiment and lets every engine and device that reads it price
// that one execution.
package bench

import (
	"fmt"
	"io"
	"math"

	"repro/internal/costmodel"
	"repro/internal/exec"
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

// Suite caches compiled models across experiments and executed traces
// within one.
type Suite struct {
	opts     Options
	compiled map[string]*frameworks.Compiled
	// traces keeps every trace the running experiment executed (see
	// trace); Run clears it after each experiment.
	traces map[traceKey]exec.Trace
}

// traceKey names one execution: a model, a sample and the executor
// policy. Engines and devices that read the same key price one trace —
// the tensors and the trace are identical by construction.
type traceKey struct {
	model  *frameworks.Compiled
	sample uint64
	policy Policy
}

// NewSuite builds a suite.
func NewSuite(opts Options) *Suite {
	if opts.Samples <= 0 {
		opts.Samples = 6
	}
	if opts.Seed == 0 {
		opts.Seed = 20240427
	}
	return &Suite{opts: opts, compiled: map[string]*frameworks.Compiled{}, traces: map[traceKey]exec.Trace{}}
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
// each experiment the kept traces are dropped and the cached models'
// region proofs invalidated, so results cannot leak from one experiment
// into the next.
func (s *Suite) Run(id string) error {
	err := s.run(id)
	s.invalidateAll()
	return err
}

// invalidateAll drops the kept traces and the region proof of every
// compiled model the suite holds.
func (s *Suite) invalidateAll() {
	clear(s.traces)
	for _, c := range s.compiled {
		c.Invalidate()
	}
}

// trace returns smp's trace on c under policy p, executing it only the
// first time the running experiment asks for it. An anonymous sample
// (ID 0) has no identity to key by: it executes on every call and is
// never kept.
func (s *Suite) trace(c *frameworks.Compiled, smp workload.Sample, p Policy) (exec.Trace, error) {
	key := traceKey{model: c, sample: smp.ID, policy: p}
	if tr, ok := s.traces[key]; ok {
		return tr, nil
	}
	res, err := c.Execute(smp, p.AllBranches, p.Order)
	if err != nil {
		return exec.Trace{}, err
	}
	if smp.ID != 0 {
		s.traces[key] = res.Trace
	}
	return res.Trace, nil
}

// price reports one sample under engine e, from the trace of e's policy.
func (s *Suite) price(e Engine, c *frameworks.Compiled, smp workload.Sample, dev costmodel.Device) (frameworks.Report, error) {
	tr, err := s.trace(c, smp, e.Policy())
	if err != nil {
		return frameworks.Report{}, err
	}
	return e.Price(c, smp, tr, dev), nil
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
func (s *Suite) runEngine(e Engine, c *frameworks.Compiled, samples []workload.Sample, dev costmodel.Device) (agg, error) {
	e.Reset()
	var a agg
	for _, smp := range samples {
		r, err := s.price(e, c, smp, dev)
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

// tableModels gives Table 5 ordering.
func tableModels() []string {
	return []string{"StableDiffusion", "SegmentAnything", "Conformer", "CodeBERT",
		"YOLO-V6", "SkipNet", "DGNet", "ConvNet-AIG", "RaNet", "BlockDrop"}
}
