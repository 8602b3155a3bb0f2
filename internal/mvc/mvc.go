// Package mvc implements SoD²'s RDP-based multi-version code generation
// (paper §4.4.2). For hotspot operators (CONV and GEMM) it enumerates the
// code versions needed to cover the shapes RDP predicts — fat, regular,
// skinny, tiny matrix regimes — prunes versions that RDP proves
// unreachable, and runs a genetic-algorithm auto-tuner over tiling/unroll
// schedules with a deterministic analytic fitness function to pick each
// version's parameters. The plan is a cost-model input, like
// fusion.Plan: it prices versions for the evaluation harness's modeled
// engines, no kernel consumes it — every MatMul and Conv runs the one
// loop nest in internal/kernels — and no serving compile builds it.
package mvc

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/symbolic"
	"repro/internal/tensor"
)

// Regime buckets a (m, n) matrix shape.
type Regime uint8

// Shape regimes considered by the tuner (§4.4.2: "fat, regular, and
// skinny matrices for both GEMM and CONV kernels").
const (
	RegimeTiny Regime = iota
	RegimeFat
	RegimeSkinny
	RegimeRegular
)

func (r Regime) String() string {
	switch r {
	case RegimeTiny:
		return "tiny"
	case RegimeFat:
		return "fat"
	case RegimeSkinny:
		return "skinny"
	default:
		return "regular"
	}
}

// RegimeOf classifies a concrete (m, n) pair.
func RegimeOf(m, n int64) Regime {
	switch {
	case m*n <= 64:
		return RegimeTiny
	case m >= 4*n:
		return RegimeFat
	case n >= 4*m:
		return RegimeSkinny
	default:
		return RegimeRegular
	}
}

// Version is one generated code version of a hotspot kernel, tuned for
// one shape regime.
type Version struct {
	Regime  Regime
	Tile    int
	Unroll  int
	Threads int
	// Efficiency is the tuner's predicted fraction of peak the schedule
	// achieves for its regime (used by the cost model).
	Efficiency float64
}

// NodeVersions lists the versions generated for one hotspot node.
type NodeVersions struct {
	Node     *graph.Node
	Versions []Version
	// PossibleRegimes are the regimes RDP could not rule out.
	PossibleRegimes []Regime
}

// Plan maps hotspot nodes to their generated versions.
type Plan struct {
	Hotspots []NodeVersions
	// TotalVersions across all hotspot nodes (Fig. 8's version counts
	// feed from here and from fusion's broadcast versions).
	TotalVersions int
}

// possibleRegimes uses RDP shape info to bound the regimes a MatMul/Conv
// can hit. Known constants pin the regime to one; symbolic dims with
// known relations prune; unknown dims admit all four. Bounds assume
// symbolic extents range over [lo, hi].
func possibleRegimes(m, n lattice.Dim, lo, hi int64) []Regime {
	mv, mKnown := m.Const()
	nv, nKnown := n.Const()
	if mKnown && nKnown {
		return []Regime{RegimeOf(mv, nv)}
	}
	mLo, mHi := lo, hi
	nLo, nHi := lo, hi
	if mKnown {
		mLo, mHi = mv, mv
	} else if m.IsExpr() {
		if a, b, err := symbolic.Bound(m.E, lo, hi); err == nil {
			mLo, mHi = a, b
		}
	}
	if nKnown {
		nLo, nHi = nv, nv
	} else if n.IsExpr() {
		if a, b, err := symbolic.Bound(n.E, lo, hi); err == nil {
			nLo, nHi = a, b
		}
	}
	return regimesInBox(mLo, mHi, nLo, nHi)
}

// regimesInBox returns, in Regime order, exactly the regimes RegimeOf
// reaches on some positive integer point of [mLo, mHi] × [nLo, nHi]
// (RegimeRegular when the box holds no positive point). Each regime is
// decided at the box point where its condition is easiest to meet:
//   - tiny (m·n ≤ 64) at the smallest corner;
//   - fat (m ≥ 4n, m·n > 64) at m = mHi, the largest n ≤ mHi/4;
//   - skinny (n ≥ 4m, m·n > 64) at n = nHi, the largest m ≤ nHi/4;
//   - regular (n/4 < m < 4n, m·n > 64) at the largest point of that
//     cone, (min(mHi, 4nHi−1), min(nHi, 4mHi−1)).
//
// For fat, skinny and regular, m·n > 64 only gets easier as m and n
// grow, so the largest box point meeting the ratio condition decides.
func regimesInBox(mLo, mHi, nLo, nHi int64) []Regime {
	mLo, nLo = max(mLo, 1), max(nLo, 1)
	if mLo > mHi || nLo > nHi {
		return []Regime{RegimeRegular}
	}
	var out []Regime
	if mLo*nLo <= 64 {
		out = append(out, RegimeTiny)
	}
	if n := min(nHi, mHi/4); n >= nLo && mHi*n > 64 {
		out = append(out, RegimeFat)
	}
	if m := min(mHi, nHi/4); m >= mLo && m*nHi > 64 {
		out = append(out, RegimeSkinny)
	}
	if m, n := min(mHi, 4*nHi-1), min(nHi, 4*mHi-1); m >= mLo && n >= nLo && m*n > 64 {
		out = append(out, RegimeRegular)
	}
	return out
}

// BuildPlan enumerates versions for every hotspot node in g, pruning by
// RDP shape knowledge. Symbolic extents are assumed to range in [lo,hi].
func BuildPlan(g *graph.Graph, infos map[string]lattice.Info, lo, hi int64) *Plan {
	if lo <= 0 {
		lo = 16
	}
	if hi <= 0 {
		hi = 1024
	}
	p := &Plan{}
	for _, n := range g.Nodes {
		m, nn, ok := hotspotDims(n, infos)
		if !ok {
			continue
		}
		regimes := possibleRegimes(m, nn, lo, hi)
		nv := NodeVersions{Node: n, PossibleRegimes: regimes}
		for _, r := range regimes {
			nv.Versions = append(nv.Versions, TuneRegime(r))
		}
		p.Hotspots = append(p.Hotspots, nv)
		p.TotalVersions += len(nv.Versions)
	}
	return p
}

// SelectVersion returns the first version generated for the regime of
// a concrete shape, or the last version when none was (a shape outside
// the range the plan was built for).
func (nv *NodeVersions) SelectVersion(m, n int64) Version {
	want := RegimeOf(m, n)
	for _, v := range nv.Versions {
		if v.Regime == want {
			return v
		}
	}
	return nv.Versions[len(nv.Versions)-1]
}

// ---- Genetic-algorithm auto-tuner -----------------------------------

// gene is a candidate schedule.
type gene struct {
	tile    int
	unroll  int
	threads int
}

// fitness is the deterministic analytic performance model the tuner
// optimizes: cache-resident tiles, moderate unrolling, and thread counts
// matching the big+mid core count are rewarded; the regime shifts the
// optimum (skinny favors small tiles/high threads, fat favors large
// tiles).
func fitness(r Regime, c gene) float64 {
	// Tile: best when the working set 3*tile² floats ≈ 32 KiB L1.
	tileOpt := 48.0
	switch r {
	case RegimeFat:
		tileOpt = 64
	case RegimeSkinny:
		tileOpt = 24
	case RegimeTiny:
		tileOpt = 8
	}
	tileScore := 1.0 / (1.0 + abs(float64(c.tile)-tileOpt)/tileOpt)
	unrollOpt := 4.0
	unrollScore := 1.0 / (1.0 + abs(float64(c.unroll)-unrollOpt)/unrollOpt)
	threadsOpt := 4.0
	if r == RegimeTiny {
		threadsOpt = 1
	}
	threadScore := 1.0 / (1.0 + abs(float64(c.threads)-threadsOpt)/threadsOpt)
	return 0.5*tileScore + 0.25*unrollScore + 0.25*threadScore
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TuneRegime runs the GA for one regime and returns the tuned version.
func TuneRegime(r Regime) Version {
	rng := tensor.NewRNG(uint64(r) + 1)
	randomGene := func() gene {
		return gene{
			tile:    []int{4, 8, 16, 24, 32, 48, 64, 96, 128}[rng.Intn(9)],
			unroll:  []int{1, 2, 4, 8, 16}[rng.Intn(5)],
			threads: []int{1, 2, 4, 8}[rng.Intn(4)],
		}
	}
	const popSize, generations = 16, 12
	pop := make([]gene, popSize)
	for i := range pop {
		pop[i] = randomGene()
	}
	mutate := func(g gene) gene {
		switch rng.Intn(3) {
		case 0:
			g.tile = []int{4, 8, 16, 24, 32, 48, 64, 96, 128}[rng.Intn(9)]
		case 1:
			g.unroll = []int{1, 2, 4, 8, 16}[rng.Intn(5)]
		default:
			g.threads = []int{1, 2, 4, 8}[rng.Intn(4)]
		}
		return g
	}
	crossover := func(a, b gene) gene {
		c := a
		if rng.Intn(2) == 0 {
			c.unroll = b.unroll
		}
		if rng.Intn(2) == 0 {
			c.threads = b.threads
		}
		return c
	}
	for gen := 0; gen < generations; gen++ {
		sort.Slice(pop, func(i, j int) bool { return fitness(r, pop[i]) > fitness(r, pop[j]) })
		elite := popSize / 4
		next := append([]gene{}, pop[:elite]...)
		for len(next) < popSize {
			a := pop[rng.Intn(elite+4)]
			b := pop[rng.Intn(popSize)]
			child := crossover(a, b)
			if rng.Intn(3) == 0 {
				child = mutate(child)
			}
			next = append(next, child)
		}
		pop = next
	}
	sort.Slice(pop, func(i, j int) bool { return fitness(r, pop[i]) > fitness(r, pop[j]) })
	best := pop[0]
	v := Version{Regime: r, Tile: best.tile, Unroll: best.unroll, Threads: best.threads}
	// Tuned efficiency: regime-specialized schedules beat the generic
	// dynamic-shape kernel (fitness ∈ (0,1]; map to [1.0, 1.6]).
	v.Efficiency = 1.0 + 0.6*fitness(r, best)
	return v
}
