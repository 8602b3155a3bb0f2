package exec

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/tensor"
)

// Failure injection: malformed graphs and runtime shape violations must
// surface as errors, never as panics or silent corruption.

func TestKernelErrorPropagates(t *testing.T) {
	g := graph.New("bad")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2, 3))
	g.AddInput("y", tensor.Float32, lattice.FromInts(4, 5))
	g.Op("MatMul", "mm", []string{"x", "y"}, []string{"z"}, nil) // inner dims mismatch
	g.AddOutput("z")
	_, err := Run(g, map[string]*tensor.Tensor{
		"x": tensor.New(tensor.Float32, 2, 3),
		"y": tensor.New(tensor.Float32, 4, 5),
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "MatMul") {
		t.Errorf("want MatMul shape error, got %v", err)
	}
}

// Malformed GEMM/Conv operands and attributes are the kernel's own typed
// errors: never a nil error over a wrong tensor, never a panic the
// recover backstop had to contain.
func TestGemmConvShapeErrorsAreTyped(t *testing.T) {
	f := func(shape ...int64) *tensor.Tensor { return tensor.New(tensor.Float32, shape...) }
	ints := func(v ...int64) *tensor.Tensor { return tensor.FromInts([]int64{int64(len(v))}, v) }
	// branches attaches the same one-node body under each subgraph attribute.
	branches := func(attrs ...string) map[string]graph.AttrValue {
		body := graph.New("body")
		body.AddInput("v", tensor.Float32, lattice.FromInts(2))
		body.Op("Relu", "r", []string{"v"}, []string{"w"}, nil)
		body.AddOutput("w")
		m := map[string]graph.AttrValue{}
		for _, a := range attrs {
			m[a] = graph.GraphAttr(body)
		}
		return m
	}
	for _, tc := range []struct {
		name  string
		op    string
		attrs map[string]graph.AttrValue
		in    []*tensor.Tensor
		want  string
	}{
		{"cout not divisible by group", "Conv", map[string]graph.AttrValue{"group": graph.IntAttr(4)},
			[]*tensor.Tensor{f(1, 4, 4, 4), f(6, 1, 1, 1)}, "not divisible by group"},
		{"one stride", "Conv", map[string]graph.AttrValue{"strides": graph.IntsAttr(1)},
			[]*tensor.Tensor{f(1, 1, 4, 4), f(1, 1, 1, 1)}, "2 strides"},
		{"two pads", "Conv", map[string]graph.AttrValue{"pads": graph.IntsAttr(1, 1)},
			[]*tensor.Tensor{f(1, 1, 4, 4), f(1, 1, 1, 1)}, "4 pads"},
		{"one dilation", "Conv", map[string]graph.AttrValue{"dilations": graph.IntsAttr(1)},
			[]*tensor.Tensor{f(1, 1, 4, 4), f(1, 1, 1, 1)}, "2 dilations"},
		{"zero stride", "Conv", map[string]graph.AttrValue{"strides": graph.IntsAttr(0, 1)},
			[]*tensor.Tensor{f(1, 1, 4, 4), f(1, 1, 1, 1)}, "non-positive strides"},
		{"short bias", "Conv", nil,
			[]*tensor.Tensor{f(1, 1, 4, 4), f(2, 1, 1, 1), f(1)}, "bias"},
		{"int64 conv input", "Conv", nil,
			[]*tensor.Tensor{tensor.New(tensor.Int64, 1, 1, 4, 4), f(1, 1, 1, 1)}, "unsupported dtypes"},
		{"int64 matmul operand", "MatMul", nil,
			[]*tensor.Tensor{tensor.New(tensor.Int64, 2, 3), f(3, 2)}, "unsupported dtypes"},
		{"rank-1 gemm operand", "Gemm", nil,
			[]*tensor.Tensor{f(3), f(3, 2)}, "ranks 1,2"},
		{"one pool kernel extent", "MaxPool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(2)},
			[]*tensor.Tensor{f(1, 1, 4, 4)}, "2 kernel_shape"},
		{"one pool stride", "AveragePool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(2, 2), "strides": graph.IntsAttr(2)},
			[]*tensor.Tensor{f(1, 1, 4, 4)}, "2 strides"},
		{"two pool pads", "MaxPool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(2, 2), "pads": graph.IntsAttr(1, 1)},
			[]*tensor.Tensor{f(1, 1, 4, 4)}, "4 pads"},
		{"zero pool stride", "MaxPool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(2, 2), "strides": graph.IntsAttr(1, 0)},
			[]*tensor.Tensor{f(1, 1, 4, 4)}, "non-positive strides"},
		{"int64 pool input", "AveragePool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(2, 2)},
			[]*tensor.Tensor{tensor.New(tensor.Int64, 1, 1, 4, 4)}, "float32 input"},
		{"pool window taller than input", "MaxPool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(9, 2)},
			[]*tensor.Tensor{f(1, 1, 4, 4)}, "non-positive output"},
		{"concat axis past rank", "Concat", map[string]graph.AttrValue{"axis": graph.IntAttr(2)},
			[]*tensor.Tensor{f(2, 3), f(2, 3)}, "axis 2 out of range"},
		{"concat axis below -rank", "Concat", map[string]graph.AttrValue{"axis": graph.IntAttr(-3)},
			[]*tensor.Tensor{f(2, 3), f(2, 3)}, "axis -3 out of range"},
		{"concat non-axis dims differ", "Concat", map[string]graph.AttrValue{"axis": graph.IntAttr(0)},
			[]*tensor.Tensor{f(2, 3), f(2, 4)}, "input 1 is float32 [2 4]"},
		{"concat mixed dtypes", "Concat", map[string]graph.AttrValue{"axis": graph.IntAttr(0)},
			[]*tensor.Tensor{f(2, 3), tensor.New(tensor.Int64, 2, 3)}, "input 1 is int64"},
		{"split axis past rank", "Split", map[string]graph.AttrValue{"axis": graph.IntAttr(3)},
			[]*tensor.Tensor{f(2, 4)}, "axis 3 out of range"},
		{"split sizes overrun the axis", "Split", map[string]graph.AttrValue{"axis": graph.IntAttr(1), "split": graph.IntsAttr(5)},
			[]*tensor.Tensor{f(2, 4)}, "do not partition axis 1"},
		{"negative split size", "Split", map[string]graph.AttrValue{"axis": graph.IntAttr(1), "split": graph.IntsAttr(-1, 5)},
			[]*tensor.Tensor{f(2, 4)}, "do not partition axis 1"},
		{"flatten axis past rank", "Flatten", map[string]graph.AttrValue{"axis": graph.IntAttr(3)},
			[]*tensor.Tensor{f(2, 3)}, "axis 3 out of range"},
		{"flatten axis below -rank", "Flatten", map[string]graph.AttrValue{"axis": graph.IntAttr(-3)},
			[]*tensor.Tensor{f(2, 3)}, "axis -3 out of range"},
		{"slice axis past rank", "Slice", nil,
			[]*tensor.Tensor{f(2, 3), ints(0), ints(1), ints(2)}, "axis 2 out of range"},
		{"slice axes outnumber starts", "Slice", nil,
			[]*tensor.Tensor{f(2, 3), ints(0), ints(1), ints(0, 1)}, "do not pair up"},
		{"slice steps short of starts", "Slice", nil,
			[]*tensor.Tensor{f(2, 3), ints(0, 0), ints(1, 1), ints(0, 1), ints(1)}, "do not pair up"},
		{"slice zero step", "Slice", nil,
			[]*tensor.Tensor{f(2, 3), ints(0), ints(2), ints(1), ints(0)}, "zero step"},
		{"empty float32 switch predicate", "Switch", nil,
			[]*tensor.Tensor{f(0), f(2)}, "non-empty predicate"},
		{"empty bool switch predicate", "Switch", nil,
			[]*tensor.Tensor{tensor.New(tensor.Bool, 0), f(2)}, "non-empty predicate"},
		{"if without a condition", "If", branches("then_branch", "else_branch"),
			nil, "no condition input"},
		{"float32 loop trip count", "Loop", branches("body"),
			[]*tensor.Tensor{f(1), tensor.ScalarBool(true), f(2)}, "trip count is float32"},
		{"loop with one input", "Loop", branches("body"),
			[]*tensor.Tensor{tensor.ScalarInt(1)}, "has 1 inputs"},
	} {
		g := graph.New("bad")
		inputs := map[string]*tensor.Tensor{}
		var names []string
		for i, x := range tc.in {
			name := string(rune('a' + i))
			g.AddInput(name, x.DType, lattice.FromInts(x.Shape...))
			inputs[name] = x
			names = append(names, name)
		}
		g.Op(tc.op, "k", names, []string{"y"}, tc.attrs)
		g.AddOutput("y")
		_, err := Run(g, inputs, Options{})
		switch {
		case err == nil:
			t.Errorf("%s: nil error", tc.name)
		case errors.Is(err, guard.ErrPanic):
			t.Errorf("%s: contained panic, want a typed error: %v", tc.name, err)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

func TestUnknownOpErrors(t *testing.T) {
	g := graph.New("unknown")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2))
	g.Op("FancyCustomOp", "f", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 2)}, Options{})
	if err == nil || !strings.Contains(err.Error(), "no kernel") {
		t.Errorf("want no-kernel error, got %v", err)
	}
}

func TestBroadcastViolationErrors(t *testing.T) {
	g := graph.New("bcast")
	g.AddInput("a", tensor.Float32, lattice.FromInts(3))
	g.AddInput("b", tensor.Float32, lattice.FromInts(4))
	g.Op("Add", "add", []string{"a", "b"}, []string{"c"}, nil)
	g.AddOutput("c")
	_, err := Run(g, map[string]*tensor.Tensor{
		"a": tensor.New(tensor.Float32, 3),
		"b": tensor.New(tensor.Float32, 4),
	}, Options{})
	if err == nil || !strings.Contains(err.Error(), "broadcast") {
		t.Errorf("want broadcast error, got %v", err)
	}
}

func TestIfMissingBranchErrors(t *testing.T) {
	g := graph.New("noif")
	g.AddInput("c", tensor.Bool, lattice.FromInts())
	g.AddInput("x", tensor.Float32, lattice.FromInts(1))
	g.Op("If", "if1", []string{"c", "x"}, []string{"y"}, nil) // no branches
	g.AddOutput("y")
	_, err := Run(g, map[string]*tensor.Tensor{
		"c": tensor.ScalarBool(true), "x": tensor.New(tensor.Float32, 1)}, Options{})
	if err == nil || !strings.Contains(err.Error(), "missing branches") {
		t.Errorf("want missing-branches error, got %v", err)
	}
}

func TestLoopMissingBodyErrors(t *testing.T) {
	g := graph.New("noloop")
	g.AddInitializer("trip", tensor.ScalarInt(1))
	g.AddInitializer("cond", tensor.ScalarBool(true))
	g.AddInput("x", tensor.Float32, lattice.FromInts(1))
	g.Op("Loop", "lp", []string{"trip", "cond", "x"}, []string{"y"}, nil)
	g.AddOutput("y")
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 1)}, Options{})
	if err == nil || !strings.Contains(err.Error(), "missing body") {
		t.Errorf("want missing-body error, got %v", err)
	}
}

// oneSlot is an arena with a single slot of slot bytes at off, for the
// value name, over a buffer of bufBytes.
func oneSlot(name string, off, slot, bufBytes int64) *Arena {
	return NewArena(map[string]int{name: 0}, []int64{off}, []int64{slot}, make([]float32, bufBytes/4))
}

func TestArenaTooSmallErrors(t *testing.T) {
	g := graph.New("arena")
	g.AddInput("x", tensor.Float32, lattice.FromInts(8))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	arena := oneSlot("y", 0, 32, 4) // 1 float for 8 floats
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 8)},
		Options{Arena: arena})
	if err == nil || !strings.Contains(err.Error(), "exceeds arena") {
		t.Errorf("want arena-overflow error, got %v", err)
	}
}

func TestArenaMisalignedOffsetErrors(t *testing.T) {
	g := graph.New("align")
	g.AddInput("x", tensor.Float32, lattice.FromInts(2))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.AddOutput("y")
	arena := oneSlot("y", 2, 8, 64)
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 2)},
		Options{Arena: arena})
	if err == nil || !strings.Contains(err.Error(), "aligned") {
		t.Errorf("want alignment error, got %v", err)
	}
}

func TestArenaPassthroughForUnplannedValues(t *testing.T) {
	g := graph.New("passthrough")
	g.AddInput("x", tensor.Float32, lattice.FromInts(4))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.Op("Shape", "s", []string{"y"}, []string{"yshape"}, nil) // int64 output
	g.AddOutput("y")
	g.AddOutput("yshape")
	arena := oneSlot("y", 0, 16, 64)
	res, err := Run(g, map[string]*tensor.Tensor{
		"x": tensor.FromFloats([]int64{4}, []float32{-1, 2, -3, 4})}, Options{Arena: arena})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["y"].F[1] != 2 {
		t.Errorf("y = %v", res.Outputs["y"].F)
	}
	if res.Outputs["yshape"].I[0] != 4 {
		t.Errorf("yshape = %v", res.Outputs["yshape"].I)
	}
}

// A tensor larger than its slot is an arena fault even where the buffer
// has room: a fitted layout packs the next slot right above it, and
// spilling would overwrite a live neighbour instead of failing.
func TestArenaSlotOverflowErrors(t *testing.T) {
	g := graph.New("slots")
	g.AddInput("x", tensor.Float32, lattice.FromInts(8))
	g.Op("Relu", "r", []string{"x"}, []string{"y"}, nil)
	g.Op("Neg", "n", []string{"y"}, []string{"z"}, nil)
	g.AddOutput("z")
	x := tensor.FromFloats([]int64{8}, []float32{-4, -3, -2, -1, 1, 2, 3, 4})
	for _, tc := range []struct {
		name  string
		sizes []int64 // y's slot at 0, z's right above it
		fault bool
	}{
		{"both fit", []int64{32, 32}, false},
		{"y outgrows its slot", []int64{16, 32}, true},
		{"z outgrows its slot", []int64{32, 16}, true},
	} {
		arena := NewArena(map[string]int{"y": 0, "z": 1}, []int64{0, tc.sizes[0]}, tc.sizes, make([]float32, 64))
		res, err := Run(g, map[string]*tensor.Tensor{"x": x}, Options{Arena: arena})
		if tc.fault {
			if !errors.Is(err, ErrArenaOverflow) || !IsArenaFault(err) {
				t.Errorf("%s: want a slot overflow fault, got %v", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, v := range res.Outputs["z"].F {
			if want := -max(x.F[i], 0); v != want {
				t.Errorf("%s: z[%d] = %v, want %v", tc.name, i, v, want)
			}
		}
		if want := tc.sizes[0] + tc.sizes[1]; arena.HighWater != want {
			t.Errorf("%s: high water = %d, want %d", tc.name, arena.HighWater, want)
		}
	}
}

func TestGatherIndexOutOfRange(t *testing.T) {
	g := graph.New("oob")
	g.AddInput("x", tensor.Float32, lattice.FromInts(3))
	g.AddInitializer("idx", tensor.FromInts([]int64{1}, []int64{7}))
	g.Op("Gather", "gg", []string{"x", "idx"}, []string{"y"}, nil)
	g.AddOutput("y")
	_, err := Run(g, map[string]*tensor.Tensor{"x": tensor.New(tensor.Float32, 3)}, Options{})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("want index error, got %v", err)
	}
}
