package exec

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// TestKernelsWriteIntoTheirSlots: on a run with an arena, a planned
// float32 output is produced in its slot — the kernel's own tensor
// already views it when PostKernel sees it — and HighWater is the end
// of the highest slot written. An output a hook swaps for a heap tensor
// is checked and copied into its slot instead, with the same result.
func TestKernelsWriteIntoTheirSlots(t *testing.T) {
	g := reluChain(3)
	x := tensor.FromFloats([]int64{4}, []float32{-2, -1, 1, 2})
	want, err := Run(g, map[string]*tensor.Tensor{"x": x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, swap := range []bool{false, true} {
		// va, vb, vc: 16 bytes each, one slot apiece, 16 bytes apart.
		arena := NewArena(map[string]int{"va": 0, "vb": 1, "vc": 2}, []int64{0, 32, 64}, []int64{16, 16, 16}, make([]float32, 20))
		inSlot := map[string]bool{}
		hooks := &Hooks{PostKernel: func(n *graph.Node, out []*tensor.Tensor) error {
			slot := arena.Slots[n.Outputs[0]]
			inSlot[n.Outputs[0]] = unsafe.SliceData(out[0].F) == &arena.buf[arena.Offsets[slot]/4]
			if swap {
				out[0] = out[0].Clone()
			}
			return nil
		}}
		got, err := Run(g, map[string]*tensor.Tensor{"x": x}, Options{Arena: arena, Hooks: hooks})
		if err != nil {
			t.Fatalf("swap %v: %v", swap, err)
		}
		if !inSlot["va"] || !inSlot["vb"] || !inSlot["vc"] {
			t.Errorf("swap %v: kernel outputs in their slots: %v", swap, inSlot)
		}
		if arena.HighWater != 80 {
			t.Errorf("swap %v: high water %d, want 80", swap, arena.HighWater)
		}
		if !slices.Equal(got.Outputs["vc"].F, want.Outputs["vc"].F) || !slices.Equal(arena.buf[16:20], want.Outputs["vc"].F) {
			t.Errorf("swap %v: output %v, slot %v, want %v", swap, got.Outputs["vc"].F, arena.buf[16:20], want.Outputs["vc"].F)
		}
	}
}
