package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/tensor"
)

// entry is one pool entry: a distinct request of one lap.
type entry struct {
	// Key names the entry in result files and golden summaries.
	Key string
	// Ord is the entry's position in generation order (model by model,
	// draw by draw), which unlike the pool order is the same for every
	// seed; the traced run strides over it.
	Ord    int
	Model  string
	Size   int64
	Gate   float32
	Inputs map[string]*tensor.Tensor
	// OffPlan marks an input outside the model's runtime contract; the
	// system must serve it on a non-planned tier.
	OffPlan bool
	// Body is the pre-encoded wire request (HTTP workloads only).
	Body []byte
}

// streamSeed derives the seed of one named input stream from the run
// seed: each (seed, stream) pair gets its own generator, so a model's
// inputs do not depend on which other models a workload includes.
func streamSeed(seed uint64, stream string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(stream))
	return h.Sum64()
}

// designPoint is one (size, gate bias) pair of a model's draw.
type designPoint struct {
	Size int64
	Gate float32
}

// designPoints lays k draws over the lowest frac of the model's aligned
// size grid. Sizes and gate biases are a fixed stratified design, not a
// random draw: sizes are evenly spaced over the covered grid, and gate
// biases follow the base-2 radical inverse (0, 1/2, 1/4, 3/4, ...), which
// covers [0,1) evenly for any k and is uncorrelated with size. The seed
// decides tensor contents and pool order only. A uniform draw of eight
// sizes moves a workload's total work by 15–25 % between seeds (cost
// grows with the square of the size), which would bury every bound in
// BENCHMARK.json under seed-to-seed spread; with the stratified design
// every seed does the same amount of work on different data.
func designPoints(b *models.Builder, k int, frac float64) []designPoint {
	step := b.SizeStep
	if step <= 0 {
		step = 1
	}
	limit := b.MinSize + int64(math.Round(frac*float64(b.MaxSize-b.MinSize)))
	var grid []int64
	for s := b.MinSize; s <= limit; s += step {
		grid = append(grid, s)
	}
	pts := make([]designPoint, k)
	for j := range pts {
		idx := 0
		if k > 1 {
			idx = int(math.Round(float64(j) * float64(len(grid)-1) / float64(k-1)))
		}
		pts[j] = designPoint{Size: grid[idx], Gate: radicalInverse(j) + 1.0/32}
	}
	return pts
}

// radicalInverse is the base-2 van der Corput sequence.
func radicalInverse(i int) float32 {
	var v, f float32 = 0, 0.5
	for ; i > 0; i >>= 1 {
		if i&1 == 1 {
			v += f
		}
		f /= 2
	}
	return v
}

// drawModel generates one model's draws from its own stream.
func drawModel(seed uint64, d modelDraw) ([]entry, error) {
	b, ok := models.Get(d.Model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", d.Model)
	}
	rng := tensor.NewRNG(streamSeed(seed, fmt.Sprintf("%s/%d/%.3f", d.Model, d.Draws, d.Frac)))
	pts := designPoints(b, d.Draws, d.Frac)
	out := make([]entry, len(pts))
	for j, p := range pts {
		out[j] = entry{
			Key:   fmt.Sprintf("%s@%d#%d", d.Model, p.Size, j),
			Model: d.Model, Size: p.Size, Gate: p.Gate,
			Inputs: b.Inputs(rng, p.Size, p.Gate),
		}
	}
	return out, nil
}

// drawOffPlan generates one out-of-contract input from its own stream.
func drawOffPlan(seed uint64, d offPlanDraw) (entry, error) {
	b, ok := models.Get(d.Model)
	if !ok {
		return entry{}, fmt.Errorf("unknown model %q", d.Model)
	}
	rng := tensor.NewRNG(streamSeed(seed, fmt.Sprintf("%s/offplan/%d", d.Model, d.Size)))
	return entry{
		Key:   fmt.Sprintf("%s@%d#offplan", d.Model, d.Size),
		Model: d.Model, Size: d.Size, Gate: 0.5, OffPlan: true,
		Inputs: b.Inputs(rng, d.Size, 0.5),
	}, nil
}

// buildPool generates a workload's pool and fixes its lap order: the
// entries are shuffled once by a stream of their own, so consecutive
// requests mix models (and, with two clients, which requests overlap
// depends on the seed), and every lap replays the same order.
func buildPool(seed uint64, w workload) ([]entry, error) {
	var pool []entry
	for _, d := range w.Models {
		es, err := drawModel(seed, d)
		if err != nil {
			return nil, err
		}
		pool = append(pool, es...)
	}
	for _, d := range w.OffPlan {
		e, err := drawOffPlan(seed, d)
		if err != nil {
			return nil, err
		}
		pool = append(pool, e)
	}
	for i := range pool {
		pool[i].Ord = i
	}
	rng := tensor.NewRNG(streamSeed(seed, "order/"+w.Name))
	for i := len(pool) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	if w.HTTP {
		for i := range pool {
			var err error
			if pool[i].Body, err = encodeBody(pool[i].Inputs); err != nil {
				return nil, fmt.Errorf("encode %s: %w", pool[i].Key, err)
			}
		}
	}
	return pool, nil
}

// encodeBody is the wire request a client sends for one input set.
func encodeBody(inputs map[string]*tensor.Tensor) ([]byte, error) {
	return json.Marshal(server.EncodeInputs(inputs))
}

// warmupInputs is the one warm-up request set-up sends each model: the
// smallest in-contract input with every gate biased closed, from a
// fixed stream (warm-up is part of set-up, not of the measured inputs).
func warmupInputs(b *models.Builder) map[string]*tensor.Tensor {
	return b.Inputs(tensor.NewRNG(streamSeed(0, "warmup/"+b.Name)), b.MinSize, 0)
}
