// Package workload generates the deterministic input-sample distributions
// of the paper's evaluation (§5.1): 50 random samples per model drawn
// from the model's size range (respecting alignment constraints like
// YOLO-v6's multiples of 32), percentile-selected sizes for Table 7, and
// evenly increasing sweeps for Fig. 10.
package workload

import (
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/models"
	"repro/internal/tensor"
)

// Sample is one concrete inference input.
type Sample struct {
	// ID uniquely identifies the sample process-wide (the experiment
	// harness keys its executed traces by it); 0 is an anonymous sample.
	ID       uint64
	Size     int64
	GateBias float32
	Inputs   map[string]*tensor.Tensor
	// ShapeKey identifies the input shape for re-initialization caching.
	ShapeKey int64
}

// sampleIDCounter is atomic so concurrent callers can generate samples
// without racing on IDs (duplicate IDs would alias distinct inputs in
// the experiment harness's traces).
var sampleIDCounter atomic.Uint64

func nextID() uint64 { return sampleIDCounter.Add(1) }

// alignedSizes enumerates the valid sizes of a model.
func alignedSizes(b *models.Builder) []int64 {
	var out []int64
	step := b.SizeStep
	if step <= 0 {
		step = 1
	}
	for s := b.MinSize; s <= b.MaxSize; s += step {
		out = append(out, s)
	}
	return out
}

// Samples draws n random samples from the model's size range.
func Samples(b *models.Builder, n int, seed uint64) []Sample {
	rng := tensor.NewRNG(seed)
	sizes := alignedSizes(b)
	out := make([]Sample, n)
	for i := range out {
		size := sizes[rng.Intn(len(sizes))]
		gate := rng.Float32()
		out[i] = Sample{
			ID:       nextID(),
			Size:     size,
			GateBias: gate,
			Inputs:   b.Inputs(rng, size, gate),
			ShapeKey: size,
		}
	}
	return out
}

// PercentileSamples draws n samples concentrated at one percentile of
// the size distribution (Table 7's 1st..100th percentile study).
func PercentileSamples(b *models.Builder, n int, percentile float64, seed uint64) []Sample {
	rng := tensor.NewRNG(seed)
	sizes := alignedSizes(b)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	// Round to the nearest index: plain int() truncation landed e.g. the
	// 50th percentile of an even-length size list below the median.
	idx := int(math.Round(percentile / 100 * float64(len(sizes)-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sizes) {
		idx = len(sizes) - 1
	}
	size := sizes[idx]
	out := make([]Sample, n)
	for i := range out {
		gate := rng.Float32()
		out[i] = Sample{ID: nextID(), Size: size, GateBias: gate, Inputs: b.Inputs(rng, size, gate), ShapeKey: size}
	}
	return out
}

// Sweep returns n evenly-spaced increasing sizes (Fig. 10's 15 inputs).
func Sweep(b *models.Builder, n int, seed uint64) []Sample {
	rng := tensor.NewRNG(seed)
	sizes := alignedSizes(b)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(sizes) - 1) / max(n-1, 1)
		size := sizes[idx]
		gate := rng.Float32()
		out = append(out, Sample{ID: nextID(), Size: size, GateBias: gate, Inputs: b.Inputs(rng, size, gate), ShapeKey: size})
	}
	return out
}

// Fixed returns n samples at one fixed size and gate bias (the
// fixed-input baselines of Fig. 11/12).
func Fixed(b *models.Builder, n int, size int64, gateBias float32, seed uint64) []Sample {
	rng := tensor.NewRNG(seed)
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{ID: nextID(), Size: size, GateBias: gateBias, Inputs: b.Inputs(rng, size, gateBias), ShapeKey: size}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
