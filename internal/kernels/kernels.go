// Package kernels is the operator table: every op type the runtime knows
// is one Register(&Def{…}) row that carries, side by side, the op's
// dynamism class (SoD² §3, Table 2), its forward and optional backward
// shape/value transfer functions for RDP, its analytic cost for the
// device cost model, and its real CPU kernel. The four classes are:
//
//   - ISDO   (Input Shape Determined Output): output value depends only on
//     input *shapes* (e.g. Shape, ConstantOfShape, EyeLike).
//   - ISDOS  (Input Shape Determined Output Shape): output shape depends on
//     input shapes; output values on input values (Conv, MatMul, Add, ...).
//   - ISVDOS (Input Shape & Value Determined Output Shape): output shape
//     additionally depends on some input *values* (Reshape, Range, ...).
//   - EDO    (Execution Determined Output): output shape only known after
//     executing the operator (NonZero, If, Loop, <Switch, Combine>).
//
// The control-flow rows (Switch, Combine, If, Loop) have no kernel: the
// executor runs them itself. Every other row has exactly one kernel;
// MatMul, Gemm and Conv (through im2col) share the single float32 GEMM
// loop nest in matmul.go.
//
// A kernel does not choose where its outputs live: it takes each one
// from its call's Ctx (Ctx.Out), which hands out a planned arena slot
// when the caller has one for that output and a heap tensor otherwise.
// A slot is reused storage, so a kernel writes every element of every
// output and reads none before writing it.
package kernels

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Kernel executes one operator over concrete inputs, taking its outputs
// from c (see Ctx). Implementations must produce bit-identical outputs
// for every thread budget (stripes are disjoint and per-element
// arithmetic order is unchanged) and for every destination.
type Kernel func(n *graph.Node, in []*tensor.Tensor, c *Ctx) ([]*tensor.Tensor, error)

// Dest is the storage a caller provides for one kernel call.
type Dest interface {
	// Out returns storage for n float32 elements of the node's i-th
	// output, or nil to have that output allocated on the heap. The
	// returned slice holds stale data.
	Out(i int, n int64) []float32
	// Scratch returns n float32 elements of kernel-private scratch,
	// holding stale data and valid until the next Scratch call.
	Scratch(n int64) []float32
}

// Ctx is one kernel call's context: its intra-op thread budget and the
// destination of its outputs. A nil *Ctx, or a nil Dest, means heap
// outputs and heap scratch; a nil *Ctx or Threads below 1 means one
// thread. The caller may reuse one Ctx across calls, so a call costs no
// allocation for it.
type Ctx struct {
	Threads int
	Dest    Dest
}

// threads is the call's intra-op thread budget, at least 1.
func (c *Ctx) threads() int {
	if c == nil {
		return 1
	}
	return max(1, c.Threads)
}

// Out returns the node's i-th output: a tensor of dtype dt and the given
// shape (copied). A float32 output is laid over the Dest's storage when
// it offers some and is heap-allocated otherwise. Either way the kernel
// writes every element: storage from a Dest is not cleared, and a
// kernel must not tell the two apart.
func (c *Ctx) Out(i int, dt tensor.DType, shape ...int64) *tensor.Tensor {
	if c != nil && c.Dest != nil && dt == tensor.Float32 {
		if n := tensor.NumElems(shape); n >= 0 {
			if f := c.Dest.Out(i, n); f != nil {
				return &tensor.Tensor{DType: dt, Shape: append([]int64(nil), shape...), F: f[:n:n]}
			}
		}
	}
	return tensor.New(dt, shape...)
}

// Scratch returns n float32 elements of scratch for this call, stale
// unless freshly allocated; a kernel that calls it once, before
// striping, can hand each stripe a disjoint part.
func (c *Ctx) Scratch(n int64) []float32 {
	if c != nil && c.Dest != nil {
		return c.Dest.Scratch(n)[:n:n]
	}
	return make([]float32, n)
}

// CostFn estimates the work of one execution given concrete shapes.
type CostFn func(node *graph.Node, in, out [][]int64) (flops, bytes int64)

// Def is one row of the operator table.
type Def struct {
	Type     string
	Class    DynClass
	Forward  ForwardFn
	Backward BackwardFn
	Cost     CostFn
	// Kernel executes the op; nil only for the control-flow rows the
	// executor runs itself.
	Kernel Kernel
}

var registry = map[string]*Def{}

// Register installs a row; duplicate types panic to surface init-time
// mistakes immediately. A row without a Cost is charged DefaultCost.
func Register(def *Def) {
	if _, dup := registry[def.Type]; dup {
		panic("kernels: duplicate registration of " + def.Type)
	}
	if def.Cost == nil {
		def.Cost = DefaultCost
	}
	registry[def.Type] = def
}

// Get returns the row of the op type.
func Get(opType string) (*Def, bool) {
	d, ok := registry[opType]
	return d, ok
}

// ClassOf returns the static dynamism class of the op type (EDO for
// unknown ops, the conservative default).
func ClassOf(opType string) DynClass {
	if d, ok := registry[opType]; ok {
		return d.Class
	}
	return EDO
}

// Has reports whether an executable kernel exists for the op type.
func Has(op string) bool {
	d, ok := registry[op]
	return ok && d.Kernel != nil
}

// Run executes the node's kernel under c (nil: heap outputs, one
// thread); results are bit-identical for every Ctx.
func Run(n *graph.Node, in []*tensor.Tensor, c *Ctx) ([]*tensor.Tensor, error) {
	d, ok := registry[n.OpType]
	if !ok || d.Kernel == nil {
		return nil, fmt.Errorf("kernels: no kernel for %s", n.OpType)
	}
	out, err := d.Kernel(n, in, c)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s(%s): %w", n.OpType, n.Name, err)
	}
	return out, nil
}

// Types lists the op types with a kernel, sorted.
func Types() []string { return sortedTypes(true) }

// AllTypes lists every row's op type, control flow included, sorted.
func AllTypes() []string { return sortedTypes(false) }

func sortedTypes(withKernel bool) []string {
	out := make([]string, 0, len(registry))
	for t, d := range registry {
		if d.Kernel != nil || !withKernel {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// DefaultCost charges one flop per output element and the byte traffic of
// all inputs and outputs — the right model for elementwise/data-movement
// operators.
func DefaultCost(node *graph.Node, in, out [][]int64) (int64, int64) {
	var flops, bytes int64
	for _, s := range out {
		n := tensor.NumElems(s)
		flops += n
		bytes += n * 4
	}
	for _, s := range in {
		bytes += tensor.NumElems(s) * 4
	}
	return flops, bytes
}

func wantInputs(in []*tensor.Tensor, n int, op string) error {
	if len(in) < n {
		return fmt.Errorf("%s: want %d inputs, got %d", op, n, len(in))
	}
	return nil
}
