package models

import (
	"math"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// The reference generators: each model's inputs drawn the way a
// map-returning generator per model draws them. Builder.Inputs must
// reproduce them value for value, because the benchmark's golden
// outputs and every seeded test sample depend on the draws.

func refImageTensor(rng *tensor.RNG, channels, h, w int64) *tensor.Tensor {
	return tensor.RandomFloats(rng, 1, 1, channels, h, w)
}

func refSeqTensor(rng *tensor.RNG, l, d int64) *tensor.Tensor {
	return tensor.RandomFloats(rng, 1, 1, l, d)
}

func refTokenTensor(rng *tensor.RNG, l, vocab int64) *tensor.Tensor {
	t := tensor.New(tensor.Int64, 1, l)
	for i := range t.I {
		t.I[i] = int64(rng.Intn(int(vocab)))
	}
	return t
}

func refGateCtlTensor(gateBias float32) *tensor.Tensor {
	return tensor.FromFloats([]int64{1}, []float32{gateBias*4 - 2})
}

type refGenerator func(rng *tensor.RNG, size int64, gateBias float32) map[string]*tensor.Tensor

func refImageInputs(channels int64) refGenerator {
	return func(rng *tensor.RNG, size int64, gateBias float32) map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{
			"image":   refImageTensor(rng, channels, size, size),
			"gatectl": refGateCtlTensor(gateBias),
		}
	}
}

var refGenerators = map[string]refGenerator{
	"SkipNet":     refImageInputs(3),
	"DGNet":       refImageInputs(3),
	"ConvNet-AIG": refImageInputs(3),
	"RaNet":       refImageInputs(3),
	"BlockDrop":   refImageInputs(3),
	"CodeBERT": func(rng *tensor.RNG, size int64, _ float32) map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{"tokens": refTokenTensor(rng, size, 128)}
	},
	"Conformer": func(rng *tensor.RNG, size int64, _ float32) map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{"audio": refSeqTensor(rng, size, 16)}
	},
	"StableDiffusion": func(rng *tensor.RNG, size int64, _ float32) map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{
			"image":  refImageTensor(rng, 3, size, size),
			"tokens": refTokenTensor(rng, 16, 64),
		}
	},
	"SegmentAnything": func(rng *tensor.RNG, size int64, _ float32) map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{
			"image":   refImageTensor(rng, 3, size, size),
			"prompts": refTokenTensor(rng, 4, 32),
		}
	},
	"YOLO-V6": func(rng *tensor.RNG, size int64, _ float32) map[string]*tensor.Tensor {
		return map[string]*tensor.Tensor{"image": refImageTensor(rng, 3, size, size)}
	},
}

// sameTensor reports whether a and b agree in dtype, shape and every
// value bit.
func sameTensor(a, b *tensor.Tensor) bool {
	if a.DType != b.DType || !slices.Equal(a.Shape, b.Shape) || len(a.F) != len(b.F) ||
		!slices.Equal(a.I, b.I) || !slices.Equal(a.B, b.B) {
		return false
	}
	for i, v := range a.F {
		if math.Float32bits(v) != math.Float32bits(b.F[i]) {
			return false
		}
	}
	return true
}

// TestSpecInputsMatchGenerators: Builder.Inputs, filling each declared
// input in Spec order, draws exactly what the reference generators draw
// — every tensor bit for bit, and the RNG left in the same state — at
// each model's smallest, middle and largest sampled size, three gate
// biases and three seeds. -short and -race builds, where the full grid
// takes minutes, check the two ends, two gates and one seed.
func TestSpecInputsMatchGenerators(t *testing.T) {
	gates, seeds := []float32{0, 0.5, 1}, []uint64{1, 7, 53}
	coarse := testing.Short() || raceEnabled
	if coarse {
		gates, seeds = []float32{0, 1}, seeds[:1]
	}
	for _, b := range All() {
		ref, ok := refGenerators[b.Name]
		if !ok {
			t.Fatalf("%s: no reference generator", b.Name)
		}
		step := max(b.SizeStep, 1)
		mid := b.MinSize + ((b.MaxSize-b.MinSize)/2/step)*step
		maxAlign := b.MinSize + ((b.MaxSize-b.MinSize)/step)*step
		sizes := []int64{b.MinSize, mid, maxAlign}
		if coarse {
			sizes = []int64{b.MinSize, maxAlign}
		}
		for _, size := range sizes {
			for _, gate := range gates {
				for _, seed := range seeds {
					rg, rw := tensor.NewRNG(seed), tensor.NewRNG(seed)
					got, want := b.Inputs(rg, size, gate), ref(rw, size, gate)
					if len(got) != len(want) {
						t.Fatalf("%s size %d gate %v seed %d: %d inputs, want %d", b.Name, size, gate, seed, len(got), len(want))
					}
					for name, w := range want {
						if g := got[name]; g == nil || !sameTensor(g, w) {
							t.Fatalf("%s size %d gate %v seed %d: input %q differs from the reference", b.Name, size, gate, seed, name)
						}
					}
					if rg.Uint64() != rw.Uint64() {
						t.Fatalf("%s size %d gate %v seed %d: next draw differs: the inputs drew in another order", b.Name, size, gate, seed)
					}
				}
			}
		}
	}
}
