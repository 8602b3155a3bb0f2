package frameworks

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/tensor"
)

// gatedModels are the models built from gated residual blocks, whose
// <Switch, Combine> pairs route a feature map around a conv body.
var gatedModels = []string{"SkipNet", "ConvNet-AIG", "BlockDrop"}

// storageOf is the address of a float32 tensor's elements.
func storageOf(t *tensor.Tensor) unsafe.Pointer {
	if t == nil || len(t.F) == 0 {
		return nil
	}
	return unsafe.Pointer(unsafe.SliceData(t.F))
}

// TestControlFlowForwardsStorage: on the planned and the dynamic rung,
// every Switch arm a kernel reads shares storage with the Switch's data
// input, and every Combine output with the input it hands on — the conv
// body's result on a taken gate, the data of the block's Switch on a
// skipped one. Storage is observed through the request's hooks: what a
// kernel reads (PreKernel) and, for a value no kernel reads, what its
// kernel wrote (PostKernel). Gates 0, 0.5 and 1 take both paths.
func TestControlFlowForwardsStorage(t *testing.T) {
	for _, name := range gatedModels {
		t.Run(name, func(t *testing.T) {
			c := compileModel(t, name)
			b := c.Builder
			var taken, skipped int
			for _, gate := range []float32{0, 0.5, 1} {
				in := b.Inputs(tensor.NewRNG(19), b.MinSize, gate)
				for _, dynamic := range []bool{false, true} {
					tk, sk := checkForwarding(t, c, in, dynamic)
					taken, skipped = taken+tk, skipped+sk
				}
			}
			if taken == 0 || skipped == 0 {
				t.Errorf("%d taken and %d skipped blocks checked: want both paths", taken, skipped)
			}
		})
	}
}

// checkForwarding serves one request on the planned or the dynamic rung
// and checks its Switch and Combine nodes, returning how many blocks
// took their conv body and how many skipped it.
func checkForwarding(t *testing.T, c *Compiled, in map[string]*tensor.Tensor, dynamic bool) (taken, skipped int) {
	t.Helper()
	read := map[string]unsafe.Pointer{}
	wrote := map[string]unsafe.Pointer{}
	hooks := &exec.Hooks{
		PreKernel: func(n *graph.Node, ts []*tensor.Tensor) error {
			for i, x := range ts {
				if p := storageOf(x); p != nil {
					read[n.Inputs[i]] = p
				}
			}
			return nil
		},
		PostKernel: func(n *graph.Node, ts []*tensor.Tensor) error {
			for i, x := range ts {
				if p := storageOf(x); p != nil && i < len(n.Outputs) {
					wrote[n.Outputs[i]] = p
				}
			}
			return nil
		},
	}
	_, gr, err := c.GuardedRun(in, GuardOptions{Hooks: hooks, ForceDynamic: dynamic})
	if err != nil {
		t.Fatal(err)
	}
	want := guard.TierPlanned
	if dynamic {
		want = guard.TierDynamic
	}
	if gr.Tier != want {
		t.Fatalf("served on %v, want %v", gr.Tier, want)
	}
	rung := fmt.Sprint(want)
	// routed holds the storage a value no kernel read or wrote may have:
	// for a Switch arm, the Switch's data; for a Combine output, its
	// inputs'.
	routed := map[string][]unsafe.Pointer{}
	storage := func(v string) []unsafe.Pointer {
		if p, ok := read[v]; ok {
			return []unsafe.Pointer{p}
		}
		if p, ok := wrote[v]; ok {
			return []unsafe.Pointer{p}
		}
		return routed[v]
	}
	for _, n := range c.ExecPlan.Order {
		switch n.OpType {
		case "Switch":
			data := storage(n.Inputs[1])
			if len(data) != 1 {
				t.Fatalf("%s: %s's data %s has %d known storages", rung, n.Name, n.Inputs[1], len(data))
			}
			arms := 0
			for _, arm := range n.Outputs {
				if p, ok := read[arm]; ok {
					arms++
					if p != data[0] {
						t.Errorf("%s: %s's arm %s does not share storage with its data %s", rung, n.Name, arm, n.Inputs[1])
					}
				}
			}
			if arms == 0 { // the arm was routed straight to the Combine
				for _, arm := range n.Outputs {
					routed[arm] = data
				}
			}
		case "Combine":
			var from []unsafe.Pointer
			for _, v := range n.Inputs {
				from = append(from, storage(v)...)
			}
			out, ok := read[n.Outputs[0]]
			if !ok { // read by no kernel: a Switch's data or a graph output
				routed[n.Outputs[0]] = from
				continue
			}
			if !slices.Contains(from, out) {
				t.Errorf("%s: %s's output shares storage with none of its inputs %v", rung, n.Name, n.Inputs)
			}
			if _, ok := wrote[n.Inputs[0]]; ok {
				taken++
			} else {
				skipped++
			}
		}
	}
	return taken, skipped
}

// copyingPlannedBytes is what one steady-state planned request (the
// fewest of three) allocated at the smallest size and gate 0.5 when
// Switch and Combine still cloned their data, measured by this test's
// own loop on go1.24, linux/amd64. Forwarding measured 38 592, 47 400
// and 23 608 bytes.
var copyingPlannedBytes = map[string]uint64{
	"SkipNet":     1_694_816,
	"ConvNet-AIG": 1_293_736,
	"BlockDrop":   1_663_160,
}

// TestControlFlowAllocatesNoCopies: forwarding instead of copying at
// least halves what a steady-state planned request of a gated model
// allocates, against the figure recorded while they copied.
func TestControlFlowAllocatesNoCopies(t *testing.T) {
	for _, name := range gatedModels {
		c := compileModel(t, name)
		b := c.Builder
		in := b.Inputs(tensor.NewRNG(23), b.MinSize, 0.5)
		run := func() {
			_, gr, err := c.GuardedRun(in, GuardOptions{})
			if err != nil || gr.Tier != guard.TierPlanned {
				t.Fatalf("%s: tier %v, err %v", name, gr.Tier, err)
			}
		}
		run() // proves the region and keeps a buffer
		best := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		copying := copyingPlannedBytes[name]
		t.Logf("%s@%d: %d bytes allocated per planned request, %d while control flow copied", name, b.MinSize, best, copying)
		if 2*best > copying {
			t.Errorf("%s@%d: a planned request allocated %d bytes, not at most half the %d it allocated with copies",
				name, b.MinSize, best, copying)
		}
	}
}
