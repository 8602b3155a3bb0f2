package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// fanGraph: k independent Tile→ReduceSum branches off one input, joined
// by an Add chain. Each branch materializes a large intermediate, so
// the memory-minimal order drains one branch at a time.
func fanGraph(k int) *graph.Graph {
	g := graph.New("fan")
	g.AddInput("x", tensor.Float32, lattice.FromInts(256))
	g.AddInitializer("reps", tensor.FromInts([]int64{1}, []int64{8}))
	tips := make([]string, k)
	for i := 0; i < k; i++ {
		mid := fmt.Sprintf("b%d", i)
		tip := mid + "t"
		g.Op("Tile", "t"+mid, []string{"x", "reps"}, []string{mid}, nil)
		g.Op("ReduceSum", "s"+mid, []string{mid}, []string{tip}, map[string]graph.AttrValue{
			"keepdims": graph.IntAttr(1)})
		tips[i] = tip
	}
	acc := tips[0]
	for i := 1; i < k; i++ {
		next := fmt.Sprintf("acc%d", i)
		g.Op("Add", fmt.Sprintf("join%d", i), []string{acc, tips[i]}, []string{next}, nil)
		acc = next
	}
	g.AddOutput(acc)
	return g
}

// randomDAG builds a uniquely-named random DAG of Relu/Add nodes over a
// fixed-size tensor. Deterministic in seed.
func randomDAG(seed int64, n int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(fmt.Sprintf("rand%d", seed))
	g.AddInput("x", tensor.Float32, lattice.FromInts(64))
	values := []string{"x"}
	consumed := map[string]bool{}
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("v%d", i)
		if len(values) >= 2 && rng.Intn(2) == 0 {
			a := values[rng.Intn(len(values))]
			b := values[rng.Intn(len(values))]
			g.Op("Add", fmt.Sprintf("add%d", i), []string{a, b}, []string{out}, nil)
			consumed[a], consumed[b] = true, true
		} else {
			a := values[rng.Intn(len(values))]
			g.Op("Relu", fmt.Sprintf("relu%d", i), []string{a}, []string{out}, nil)
			consumed[a] = true
		}
		values = append(values, out)
	}
	// Every unconsumed value is a model output, so no node is dead.
	for _, v := range values[1:] {
		if !consumed[v] {
			g.AddOutput(v)
		}
	}
	return g
}

// requireTopological asserts order schedules every node after all of
// its predecessors.
func requireTopological(t *testing.T, g *graph.Graph, order []*graph.Node, label string) {
	t.Helper()
	if len(order) != len(g.Nodes) {
		t.Fatalf("%s: order covers %d/%d nodes", label, len(order), len(g.Nodes))
	}
	seen := map[*graph.Node]bool{}
	for _, n := range order {
		for _, p := range g.Predecessors(n) {
			if !seen[p] {
				t.Fatalf("%s: %s scheduled before predecessor %s", label, n.Name, p.Name)
			}
		}
		seen[n] = true
	}
}

func orderNames(order []*graph.Node) []string {
	out := make([]string, len(order))
	for i, n := range order {
		out[i] = n.Name
	}
	return out
}

// TestParetoPropertyRandomDAGs is the SEP order's contract over random
// graphs: the order is a complete topological order, its recorded peak
// matches the recomputed one, it is deterministic, and where the
// exhaustive search ran it is the memory end of the (peak memory ×
// width) frontier — no other order, declaration or breadth-first, holds
// fewer live bytes at its peak.
func TestParetoPropertyRandomDAGs(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		n := 8 + int(seed)%12
		g := randomDAG(seed, n)
		infos := analyzed(t, g)
		p, err := Build(g, infos, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		label := fmt.Sprintf("seed %d", seed)
		requireTopological(t, g, p.Order, label)
		sizes := valueSizes(g, infos, nominalEnv(infos), nil)
		if peak := PeakBytes(g, p.Order, sizes); peak != p.PeakBytes {
			t.Errorf("%s: recorded peak %d != recomputed %d", label, p.PeakBytes, peak)
		}
		if n <= 14 {
			sorted, _ := g.TopoSort()
			for _, other := range []struct {
				name  string
				order []*graph.Node
			}{{"declaration", sorted}, {"breadth-first", BFSOrder(g)}} {
				if peak := PeakBytes(g, other.order, sizes); p.PeakBytes > peak {
					t.Errorf("%s: SEP peak %d above the %s order's %d", label, p.PeakBytes, other.name, peak)
				}
			}
		}
		again, err := Build(g, infos, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, b := orderNames(p.Order), orderNames(again.Order)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: nondeterministic order at step %d: %s != %s", label, j, a[j], b[j])
			}
		}
	}
}

// TestBuildDeterministic pins the greedy scheduler's tie-breaking: the
// same graph must plan to the same order on every compile (map
// iteration order must never leak into the result).
func TestBuildDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := randomDAG(seed, 30) // beyond the exhaustive cap: greedy path
		infos := analyzed(t, g)
		first, err := Build(g, infos, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for rep := 0; rep < 3; rep++ {
			p, err := Build(g, infos, Options{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			a, b := orderNames(first.Order), orderNames(p.Order)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("seed %d rep %d: greedy order nondeterministic at step %d: %s != %s",
						seed, rep, j, a[j], b[j])
				}
			}
		}
	}
}
