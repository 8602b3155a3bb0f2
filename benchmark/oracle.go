package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// goldenSeed is the seed the committed golden summaries were made with;
// other seeds skip the golden comparison (their inputs differ).
const goldenSeed = 1

//go:embed golden/*.json
var goldenFS embed.FS

// oracle computes each entry's reference outputs with exec.Run on the
// freshly built, uncompiled float32 graph: declaration (topological)
// order, heap allocation — no RDP order, arena, specialization,
// quantization, batching or caching. It shares the kernels with the
// system under test, which is why the golden summaries exist beside it.
type oracle struct {
	graphs map[string]*graph.Graph
}

func newOracle(builders []*models.Builder) *oracle {
	o := &oracle{graphs: make(map[string]*graph.Graph, len(builders))}
	for _, b := range builders {
		o.graphs[b.Name] = b.Build()
	}
	return o
}

func (o *oracle) reference(e *entry) (map[string]*tensor.Tensor, error) {
	res, err := exec.Run(o.graphs[e.Model], e.Inputs, exec.Options{})
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", e.Key, err)
	}
	return res.Outputs, nil
}

// f32 responses must match the reference within absTol + relTol·amp,
// amp being the reference output's largest magnitude.
const (
	absTol = 1e-5
	relTol = 1e-4
)

// diff is the comparison of one response against its reference.
type diff struct {
	maxAbs       float64
	bitIdentical bool
}

// compareOutputs checks got against ref output by output. Float outputs
// are compared under the tolerance above; integer and boolean outputs
// must be equal. The returned diff is valid whenever err is nil.
func compareOutputs(ref, got map[string]*tensor.Tensor) (diff, error) {
	d := diff{bitIdentical: true}
	for name, rt := range ref {
		gt := got[name]
		if gt == nil {
			return d, fmt.Errorf("output %q missing", name)
		}
		if gt.DType != rt.DType || !equalShape(gt.Shape, rt.Shape) {
			return d, fmt.Errorf("output %q: got %v%v, want %v%v", name, gt.DType, gt.Shape, rt.DType, rt.Shape)
		}
		switch rt.DType {
		case tensor.Float32:
			var amp, worst float64
			for i, rv := range rt.F {
				if math.Float32bits(rv) != math.Float32bits(gt.F[i]) {
					d.bitIdentical = false
				}
				if a := math.Abs(float64(rv)); a > amp {
					amp = a
				}
				dv := math.Abs(float64(gt.F[i]) - float64(rv))
				if math.IsNaN(dv) {
					return d, fmt.Errorf("output %q: element %d is %v, want %v", name, i, gt.F[i], rv)
				}
				if dv > worst {
					worst = dv
				}
			}
			if worst > d.maxAbs {
				d.maxAbs = worst
			}
			if tol := absTol + relTol*amp; worst > tol {
				return d, fmt.Errorf("output %q: max|got-ref| = %g exceeds %g", name, worst, tol)
			}
		case tensor.Int64:
			for i, rv := range rt.I {
				if gt.I[i] != rv {
					return d, fmt.Errorf("output %q: int element %d = %d, want %d", name, i, gt.I[i], rv)
				}
			}
		case tensor.Bool:
			for i, rv := range rt.B {
				if gt.B[i] != rv {
					return d, fmt.Errorf("output %q: bool element %d differs", name, i)
				}
			}
		}
	}
	return d, nil
}

func equalShape(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maxAbsDrift is the largest element-wise difference between two float
// output sets (the int8 workload's measured drift).
func maxAbsDrift(ref, got map[string]*tensor.Tensor) float64 {
	var worst float64
	for name, rt := range ref {
		gt := got[name]
		if gt == nil || rt.DType != tensor.Float32 || len(gt.F) != len(rt.F) {
			continue
		}
		for i, rv := range rt.F {
			if dv := math.Abs(float64(gt.F[i]) - float64(rv)); dv > worst {
				worst = dv
			}
		}
	}
	return worst
}

// digest is a cheap order-sensitive hash of an output set, used to
// check that every lap's response to an entry repeats the first lap's.
func digest(out map[string]*tensor.Tensor) uint64 {
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	for _, name := range names {
		t := out[name]
		for _, c := range []byte(name) {
			mix(uint64(c))
		}
		for _, d := range t.Shape {
			mix(uint64(d))
		}
		for _, v := range t.F {
			mix(uint64(math.Float32bits(v)))
		}
		for _, v := range t.I {
			mix(uint64(v))
		}
		for _, v := range t.B {
			if v {
				mix(1)
			} else {
				mix(2)
			}
		}
	}
	return h
}

// ---- golden summaries ----

// summary condenses one output tensor: enough to notice that a kernel
// rewrite moved the oracle and the system together.
type summary struct {
	Shape []int64   `json:"shape"`
	Sum   float64   `json:"sum"`
	L2    float64   `json:"l2"`
	First []float64 `json:"first"`
}

// goldenFile is benchmark/golden/<workload>.json.
type goldenFile struct {
	Seed     uint64                        `json:"seed"`
	Workload string                        `json:"workload"`
	Entries  map[string]map[string]summary `json:"entries"`
}

const goldenFirst = 16

func summarize(t *tensor.Tensor) summary {
	s := summary{Shape: append([]int64{}, t.Shape...), First: []float64{}}
	n := int(t.Len())
	at := func(i int) float64 {
		switch t.DType {
		case tensor.Float32:
			return float64(t.F[i])
		case tensor.Int64:
			return float64(t.I[i])
		default:
			if t.B[i] {
				return 1
			}
			return 0
		}
	}
	var sq float64
	for i := 0; i < n; i++ {
		v := at(i)
		s.Sum += v
		sq += v * v
		if i < goldenFirst {
			s.First = append(s.First, v)
		}
	}
	s.L2 = math.Sqrt(sq)
	return s
}

func summarizeOutputs(out map[string]*tensor.Tensor) map[string]summary {
	m := make(map[string]summary, len(out))
	for name, t := range out {
		m[name] = summarize(t)
	}
	return m
}

// goldenRelTol is the relative tolerance of the golden comparison.
const goldenRelTol = 1e-3

// matches compares a fresh summary against the golden one. Values are
// compared relative to their own size plus the tensor's RMS, and the
// sum relative to the drift n coherent RMS-sized errors would cause, so
// outputs that cancel to a near-zero sum do not demand exact equality.
func (g summary) matches(s summary) error {
	if !equalShape(g.Shape, s.Shape) {
		return fmt.Errorf("shape %v, golden %v", s.Shape, g.Shape)
	}
	n := 1.0
	for _, d := range g.Shape {
		n *= float64(d)
	}
	rms := 0.0
	if n > 0 {
		rms = g.L2 / math.Sqrt(n)
	}
	near := func(a, b, atol float64) bool {
		return math.Abs(a-b) <= goldenRelTol*math.Max(math.Abs(a), math.Abs(b))+atol
	}
	if !near(s.L2, g.L2, 0) {
		return fmt.Errorf("l2 %g, golden %g", s.L2, g.L2)
	}
	if !near(s.Sum, g.Sum, goldenRelTol*rms*n) {
		return fmt.Errorf("sum %g, golden %g", s.Sum, g.Sum)
	}
	if len(s.First) != len(g.First) {
		return fmt.Errorf("%d leading values, golden %d", len(s.First), len(g.First))
	}
	for i := range g.First {
		if !near(s.First[i], g.First[i], goldenRelTol*rms) {
			return fmt.Errorf("value %d = %g, golden %g", i, s.First[i], g.First[i])
		}
	}
	return nil
}

// checkGolden compares the oracle's outputs for a workload against the
// committed summaries and returns how many entries were compared. Only
// the golden seed has summaries; any other seed compares nothing.
func checkGolden(w workload, seed uint64, refs map[string]map[string]summary) (int, error) {
	if seed != goldenSeed {
		return 0, nil
	}
	raw, err := goldenFS.ReadFile("golden/" + w.Name + ".json")
	if err != nil {
		return 0, fmt.Errorf("golden summaries for %s: %w (run -update-golden)", w.Name, err)
	}
	var gf goldenFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		return 0, fmt.Errorf("golden/%s.json: %w", w.Name, err)
	}
	if len(gf.Entries) != len(refs) {
		return 0, fmt.Errorf("golden/%s.json has %d entries, pool has %d", w.Name, len(gf.Entries), len(refs))
	}
	for key, outs := range refs {
		gouts, ok := gf.Entries[key]
		if !ok {
			return 0, fmt.Errorf("golden/%s.json: no entry %s", w.Name, key)
		}
		for name, s := range outs {
			g, ok := gouts[name]
			if !ok {
				return 0, fmt.Errorf("golden/%s.json: %s has no output %q", w.Name, key, name)
			}
			if err := g.matches(s); err != nil {
				return 0, fmt.Errorf("oracle output %s/%s drifted from golden: %w", key, name, err)
			}
		}
	}
	return len(refs), nil
}

// writeGolden regenerates one workload's golden file in dir.
func writeGolden(dir string, w workload, refs map[string]map[string]summary) error {
	raw, err := json.MarshalIndent(goldenFile{Seed: goldenSeed, Workload: w.Name, Entries: refs}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, w.Name+".json"), append(raw, '\n'), 0o644)
}
