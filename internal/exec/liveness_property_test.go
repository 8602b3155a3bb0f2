package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/staticverify"
	"repro/internal/tensor"
)

// Property test for the static liveness proof: on random DAGs of
// shape-preserving operators, the intervals staticverify.Liveness derives
// from the schedule alone must equal the birth/last-touch steps observed
// in an instrumented execution trace. This extends the failure-injection
// harness above with a positive property — the static analysis never
// over- or under-approximates what the runtime actually does.

// randomDAG builds a random DAG where every value is a [2,3] float32
// tensor, so any wiring of elementwise unary/binary ops is valid.
func randomDAG(rng *rand.Rand) *graph.Graph {
	g := graph.New("prop")
	g.AddInput("x0", tensor.Float32, lattice.FromInts(2, 3))
	g.AddInput("x1", tensor.Float32, lattice.FromInts(2, 3))
	vals := []string{"x0", "x1"}
	unary := []string{"Relu", "Sigmoid", "Abs", "Exp", "Tanh"}
	binary := []string{"Add", "Mul", "Sub", "Max"}
	n := 3 + rng.Intn(10)
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("v%d", i)
		name := fmt.Sprintf("n%d", i)
		if rng.Intn(3) == 0 {
			op := unary[rng.Intn(len(unary))]
			g.Op(op, name, []string{vals[rng.Intn(len(vals))]}, []string{out}, nil)
		} else {
			op := binary[rng.Intn(len(binary))]
			a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			g.Op(op, name, []string{a, b}, []string{out}, nil)
		}
		vals = append(vals, out)
	}
	// The final value is always an output; sometimes an earlier
	// intermediate too, exercising the keep-alive extension. Values that
	// end up never consumed exercise the die-at-birth case.
	g.AddOutput(fmt.Sprintf("v%d", n-1))
	if n > 1 && rng.Intn(2) == 0 {
		g.AddOutput(fmt.Sprintf("v%d", rng.Intn(n-1)))
	}
	return g
}

// observedIntervals replays a trace into per-value live intervals: birth
// at the producing event, death at the last consuming event, with graph
// outputs extended to the final step (the runtime holds them to return
// them — the same rule the static analysis applies).
func observedIntervals(g *graph.Graph, tr Trace) map[string]staticverify.LifeInterval {
	obs := map[string]staticverify.LifeInterval{}
	for step, ev := range tr.Events {
		for _, in := range ev.InNames {
			if iv, ok := obs[in]; ok {
				iv.Death = step
				obs[in] = iv
			}
		}
		for _, o := range ev.OutNames {
			obs[o] = staticverify.LifeInterval{Birth: step, Death: step}
		}
	}
	last := len(tr.Events) - 1
	for _, o := range g.Outputs {
		if iv, ok := obs[o]; ok && iv.Death < last {
			iv.Death = last
			obs[o] = iv
		}
	}
	return obs
}

func TestLivenessMatchesExecution(t *testing.T) {
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		g := randomDAG(rng)
		order, err := g.TopoSort()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		static, diags := staticverify.Liveness(g, order)
		if len(diags) != 0 {
			t.Fatalf("trial %d: valid topo order raised diagnostics: %v", trial, diags)
		}

		res, err := Run(g, map[string]*tensor.Tensor{
			"x0": tensor.RandomFloats(tensor.NewRNG(uint64(trial)), 1, 2, 3),
			"x1": tensor.RandomFloats(tensor.NewRNG(uint64(trial)+1), 1, 2, 3),
		}, Options{Order: order, Hooks: &Hooks{}})
		if err != nil {
			t.Fatalf("trial %d: exec failed: %v", trial, err)
		}
		if len(res.Trace.Events) != len(order) {
			t.Fatalf("trial %d: %d trace events for %d scheduled ops",
				trial, len(res.Trace.Events), len(order))
		}

		obs := observedIntervals(g, res.Trace)
		if len(obs) != len(static) {
			t.Fatalf("trial %d: static tracks %d values, execution touched %d",
				trial, len(static), len(obs))
		}
		for name, want := range obs {
			if got, ok := static[name]; !ok || got != want {
				t.Errorf("trial %d: value %s static interval %+v, observed %+v\n%s",
					trial, name, static[name], want, g.DOT())
			}
		}
	}
}
