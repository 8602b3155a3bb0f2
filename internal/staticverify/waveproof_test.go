package staticverify

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/symbolic"
)

func provenSeq(t *testing.T) ([]*graph.Node, MemVerdict) {
	t.Helper()
	g, infos := seqModel(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	region := Region{"L": symbolic.NewInterval(2, 16, 2)}
	live, _ := Liveness(g, order)
	v, diags := ProveMemory(g, infos, order, region, live)
	if !v.Proven {
		t.Fatalf("sequential proof failed: %q (%v)", v.Reason, diags)
	}
	return order, v
}

func TestProveWavefrontsProven(t *testing.T) {
	order, mem := provenSeq(t)
	// One wave per step: trivially an antichain partition.
	waves := make([][2]int, len(order))
	for i := range order {
		waves[i] = [2]int{i, i + 1}
	}
	v, diags := ProveWavefronts(order, waves, mem)
	if !v.Proven {
		t.Fatalf("not proven: %q (%v)", v.Reason, diags)
	}
	if v.Layout == nil || v.Waves != len(order) || v.MaxWidth != 1 {
		t.Fatalf("verdict %+v", v)
	}
	// Width-1 waves never widen anything: same footprint.
	if v.ArenaSize != mem.Plan.ArenaSize {
		t.Fatalf("trivial partition changed arena: %d vs %d", v.ArenaSize, mem.Plan.ArenaSize)
	}
}

func TestProveWavefrontsRejectsDependentWave(t *testing.T) {
	order, mem := provenSeq(t)
	// The chain mm→act in one wave violates the antichain requirement.
	v, diags := ProveWavefronts(order, [][2]int{{0, len(order)}}, mem)
	if v.Proven {
		t.Fatal("dependent wave proven")
	}
	found := false
	for _, d := range diags {
		if d.Code == "wave-antichain" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want wave-antichain diagnostic, got %v", diags)
	}
}

func TestProveWavefrontsRejectsBadPartition(t *testing.T) {
	order, mem := provenSeq(t)
	v, _ := ProveWavefronts(order, [][2]int{{0, 1}}, mem)
	if v.Proven {
		t.Fatal("partial partition proven")
	}
}

func TestProveWavefrontsRequiresSequentialProof(t *testing.T) {
	order, _ := provenSeq(t)
	waves := make([][2]int, len(order))
	for i := range order {
		waves[i] = [2]int{i, i + 1}
	}
	v, diags := ProveWavefronts(order, waves, MemVerdict{Reason: "unbounded symbol"})
	if v.Proven {
		t.Fatal("proven without a sequential memory proof")
	}
	if len(diags) == 0 || diags[0].Code != "wave-memory" {
		t.Fatalf("want wave-memory diagnostic, got %v", diags)
	}
}
