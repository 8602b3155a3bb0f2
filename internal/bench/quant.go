package bench

import (
	"encoding/json"
	"io"
	"math"
	"time"

	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// roundTo rounds v to the given number of decimals, so snapshot JSON
// stays stable across runs.
func roundTo(v float64, decimals int) float64 {
	p := math.Pow(10, float64(decimals))
	return math.Round(v*p) / p
}

// QuantRow is one model's int8-vs-float32 serving comparison: packed
// storage ratio, measured wall-clock speedup, and output drift against
// the float32 reference on the same inputs.
type QuantRow struct {
	Model string `json:"model"`
	// Tensors/Skipped count initializers packed vs left float32.
	Tensors int `json:"tensors"`
	Skipped int `json:"skipped"`
	// BytesRatio is packed bytes over float bytes for the packed
	// tensors; WeightBytesF32/WeightBytesQuant are the whole model's
	// weight storage before and after.
	BytesRatio       float64 `json:"bytes_ratio"`
	WeightBytesF32   int64   `json:"weight_bytes_f32"`
	WeightBytesQuant int64   `json:"weight_bytes_quant"`
	// Speedup is f32 wall time over quantized wall time, best-of-3
	// passes over the sample set (real clock, not the device model:
	// dequant-on-the-fly kernels trade FLOPs for bandwidth, which the
	// analytic model does not see).
	Speedup float64 `json:"speedup"`
	// MaxAbsDrift / MaxRelDrift bound the quantized outputs' error vs
	// the float32 run across every sample (rel = abs / per-output
	// reference amplitude).
	MaxAbsDrift float64 `json:"max_abs_drift"`
	MaxRelDrift float64 `json:"max_rel_drift"`
}

// QuantSnapshot is the BENCH_quant.json schema.
type QuantSnapshot struct {
	Format  string     `json:"format"`
	Samples int        `json:"samples"`
	Rows    []QuantRow `json:"rows"`
}

// Quant runs the quantized-serving experiment: every model compiled
// with int8 weights against its float32 baseline.
func (s *Suite) Quant() error {
	snap, err := s.quantSnapshot()
	if err != nil {
		return err
	}
	s.printf("\n== Quantized serving: int8 weights vs float32, same inputs (wall clock) ==\n")
	s.printf("%-18s | %7s | %7s | %11s | %11s | %7s | %9s | %9s\n",
		"Model", "packed", "skipped", "w bytes f32", "w bytes q", "ratio", "speedup", "max drift")
	for _, r := range snap.Rows {
		s.printf("%-18s | %7d | %7d | %11d | %11d | %7.3f | %8.2fx | %9.2g\n",
			r.Model, r.Tensors, r.Skipped, r.WeightBytesF32, r.WeightBytesQuant,
			r.BytesRatio, r.Speedup, r.MaxAbsDrift)
	}
	s.printf("(ratio = packed/float bytes over the packed tensors; drift = max |int8 - f32| over all outputs/samples)\n")
	return nil
}

// WriteQuantSnapshot writes the experiment's JSON snapshot (the
// checked-in BENCH_quant.json).
func (s *Suite) WriteQuantSnapshot(w io.Writer) error {
	snap, err := s.quantSnapshot()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func (s *Suite) quantSnapshot() (*QuantSnapshot, error) {
	snap := &QuantSnapshot{Format: tensor.Int8.String(), Samples: s.opts.Samples}
	for _, b := range models.All() {
		fc, err := s.model(b.Name)
		if err != nil {
			return nil, err
		}
		qc, err := frameworks.CompileSched(b, frameworks.SchedConfig{
			Quant: frameworks.QuantConfig{Format: tensor.Int8},
		})
		if err != nil {
			return nil, err
		}
		samples := workload.Samples(b, s.opts.Samples, s.opts.Seed)
		row := QuantRow{Model: b.Name,
			WeightBytesF32:   fc.WeightBytes(),
			WeightBytesQuant: qc.WeightBytes()}
		if q := qc.Quant; q != nil {
			row.Tensors, row.Skipped, row.BytesRatio = q.Tensors, q.Skipped, roundTo(q.BytesRatio(), 4)
		}
		var fOut []map[string]*tensor.Tensor
		fTime, err := timeRuns(fc, samples, &fOut)
		if err != nil {
			return nil, err
		}
		var qOut []map[string]*tensor.Tensor
		qTime, err := timeRuns(qc, samples, &qOut)
		if err != nil {
			return nil, err
		}
		if qTime > 0 {
			row.Speedup = roundTo(float64(fTime)/float64(qTime), 3)
		}
		for i := range fOut {
			abs, rel := driftBetween(fOut[i], qOut[i])
			row.MaxAbsDrift = math.Max(row.MaxAbsDrift, abs)
			row.MaxRelDrift = math.Max(row.MaxRelDrift, rel)
		}
		row.MaxAbsDrift = roundTo(row.MaxAbsDrift, 6)
		row.MaxRelDrift = roundTo(row.MaxRelDrift, 6)
		snap.Rows = append(snap.Rows, row)
	}
	return snap, nil
}

// timeRuns serves every sample and returns the best-of-3 total wall
// time; outputs of the last pass are appended to out when non-nil.
func timeRuns(c *frameworks.Compiled, samples []workload.Sample, out *[]map[string]*tensor.Tensor) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		if out != nil {
			*out = (*out)[:0]
		}
		start := time.Now()
		for _, smp := range samples {
			res, _, err := c.GuardedRun(smp.Inputs, frameworks.GuardOptions{})
			if err != nil {
				return 0, err
			}
			if out != nil {
				*out = append(*out, res.Outputs)
			}
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// driftBetween returns the max element-wise |a-b| over the common
// float32 outputs, and the same normalized by each output's reference
// amplitude.
func driftBetween(ref, got map[string]*tensor.Tensor) (maxAbs, maxRel float64) {
	for name, rt := range ref {
		qt := got[name]
		if qt == nil || rt.DType != tensor.Float32 || qt.DType != tensor.Float32 ||
			len(qt.F) != len(rt.F) {
			continue
		}
		var abs, amp float64
		for i, rv := range rt.F {
			if d := math.Abs(float64(qt.F[i]) - float64(rv)); d > abs {
				abs = d
			}
			if a := math.Abs(float64(rv)); a > amp {
				amp = a
			}
		}
		maxAbs = math.Max(maxAbs, abs)
		if amp > 0 {
			maxRel = math.Max(maxRel, abs/amp)
		}
	}
	return maxAbs, maxRel
}
