// Package kernels implements real CPU reference kernels for every
// operator in the registry. The executor runs them to produce actual
// tensor values, and testing.B benchmarks measure their wall-clock
// behaviour. There is one kernel per operator: MatMul, Gemm and Conv
// (through im2col) share the single float32 GEMM loop nest in
// matmul.go.
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

// kernels is the one kernel table: every op type is registered exactly
// once.
var kernels = map[string]Kernel{}

// register installs an op's kernel; duplicates panic at init time.
func register(op string, k Kernel) {
	if _, dup := kernels[op]; dup {
		panic("kernels: duplicate " + op)
	}
	kernels[op] = k
}

// Has reports whether an executable kernel exists for the op type.
func Has(op string) bool {
	_, ok := kernels[op]
	return ok
}

// Run executes the node's kernel under c (nil: heap outputs, one
// thread); results are bit-identical for every Ctx.
func Run(n *graph.Node, in []*tensor.Tensor, c *Ctx) ([]*tensor.Tensor, error) {
	k, ok := kernels[n.OpType]
	if !ok {
		return nil, fmt.Errorf("kernels: no kernel for %s", n.OpType)
	}
	out, err := k(n, in, c)
	if err != nil {
		return nil, fmt.Errorf("kernels: %s(%s): %w", n.OpType, n.Name, err)
	}
	return out, nil
}

// Types lists all op types with kernels, sorted.
func Types() []string {
	out := make([]string, 0, len(kernels))
	for t := range kernels {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func wantInputs(in []*tensor.Tensor, n int, op string) error {
	if len(in) < n {
		return fmt.Errorf("%s: want %d inputs, got %d", op, n, len(in))
	}
	return nil
}
