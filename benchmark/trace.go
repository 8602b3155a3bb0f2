package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// span is one timed interval of the traced run. Spans of one request
// share Req (the pool index); Parent is the index of the enclosing span
// in the trace, -1 for a request's top-level spans. A layer's self time
// is its span minus what its children cover.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// opClass groups operator types for the kernels.* metrics.
type opClass int

const (
	classMatmul opClass = iota
	classConv
	classElementwise
	classNorm
	classMovement
	classOther
	numClasses
)

var classNames = [numClasses]string{"matmul", "conv", "elementwise", "norm", "movement", "other"}

// opClasses assigns every op type with a kernel to a class. The unit
// test checks it against kernels.Types(), so a new op type with no class
// fails there instead of silently landing in "other".
var opClasses = map[string]opClass{
	"MatMul": classMatmul, "Gemm": classMatmul,
	"Conv": classConv,

	"Abs": classElementwise, "Add": classElementwise, "And": classElementwise, "Cast": classElementwise,
	"Ceil": classElementwise, "Clip": classElementwise, "Cos": classElementwise, "Div": classElementwise,
	"Dropout": classElementwise, "Elu": classElementwise, "Equal": classElementwise, "Erf": classElementwise,
	"Exp": classElementwise, "Floor": classElementwise, "Gelu": classElementwise, "Greater": classElementwise,
	"GreaterOrEqual": classElementwise, "HardSigmoid": classElementwise, "HardSwish": classElementwise,
	"Identity": classElementwise, "IsNaN": classElementwise, "LeakyRelu": classElementwise, "Less": classElementwise,
	"LessOrEqual": classElementwise, "Log": classElementwise, "Max": classElementwise, "Min": classElementwise,
	"Mish": classElementwise, "Mod": classElementwise, "Mul": classElementwise, "Neg": classElementwise,
	"Not": classElementwise, "Or": classElementwise, "PRelu": classElementwise, "Pow": classElementwise,
	"Reciprocal": classElementwise, "Relu": classElementwise, "Round": classElementwise, "Selu": classElementwise,
	"Sigmoid": classElementwise, "Sign": classElementwise, "Silu": classElementwise, "Sin": classElementwise,
	"Softplus": classElementwise, "Softsign": classElementwise, "Sqrt": classElementwise, "Sub": classElementwise,
	"Tanh": classElementwise, "ThresholdedRelu": classElementwise, "Where": classElementwise, "Xor": classElementwise,

	"BatchNormalization": classNorm, "GroupNormalization": classNorm, "InstanceNormalization": classNorm,
	"LayerNormalization": classNorm, "Softmax": classNorm, "LogSoftmax": classNorm,

	"Concat": classMovement, "ConstantOfShape": classMovement, "DepthToSpace": classMovement, "Expand": classMovement,
	"EyeLike": classMovement, "Flatten": classMovement, "Gather": classMovement, "OneHot": classMovement,
	"Pad": classMovement, "Range": classMovement, "Reshape": classMovement, "Resize": classMovement,
	"ScatterElements": classMovement, "Shape": classMovement, "Size": classMovement, "Slice": classMovement,
	"SpaceToDepth": classMovement, "Split": classMovement, "Squeeze": classMovement, "Tile": classMovement,
	"Transpose": classMovement, "Trilu": classMovement, "Unsqueeze": classMovement, "Upsample": classMovement,

	// Pooling, reductions and selection: none is large on the ten models.
	"ArgMax": classOther, "ArgMin": classOther, "AveragePool": classOther, "CumSum": classOther,
	"GlobalAveragePool": classOther, "GlobalMaxPool": classOther, "MaxPool": classOther,
	"NonMaxSuppression": classOther, "NonZero": classOther, "ReduceL2": classOther, "ReduceMax": classOther,
	"ReduceMean": classOther, "ReduceMin": classOther, "ReduceProd": classOther, "ReduceSum": classOther,
	"TopK": classOther,
}

// kernelTotals accumulates kernel time by class, plus the FLOPs computed
// from the hook shapes for the two classes that have a closed form.
type kernelTotals struct {
	ns                       [numClasses]int64
	matmulFLOP, convFLOP     float64
	matmulFLOPNS, convFLOPNS int64 // time of the kernels whose FLOPs were counted
}

func (k *kernelTotals) totalNS() int64 {
	var s int64
	for _, v := range k.ns {
		s += v
	}
	return s
}

// tracer records spans in memory and times kernels through exec.Hooks.
// The traced run has one client and the interpreter runs kernels one at
// a time, so at most one kernel is open; the mutex makes the hooks safe
// for the concurrent use exec.Hooks documents anyway.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span

	// Kernel spans attach to the call that is currently open.
	parent, req int
	totals      *kernelTotals // nil: record spans only
	kStart      time.Time
	kIn         []*tensor.Tensor
}

func newTracer() *tracer { return &tracer{t0: time.Now(), parent: -1} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

// timed runs fn inside a top-level span of request req. Kernels that
// run inside fn become children of the span and, when totals is non-nil,
// are accumulated there.
func (t *tracer) timed(name string, req int, totals *kernelTotals, fn func()) time.Duration {
	id := t.begin(name, -1, req)
	t.mu.Lock()
	t.parent, t.req, t.totals = id, req, totals
	t.mu.Unlock()
	fn()
	d := t.end(id)
	t.mu.Lock()
	t.parent, t.totals = -1, nil
	t.mu.Unlock()
	return d
}

// hooks returns the Pre/PostKernel pair that turns every kernel launch
// into a span.
func (t *tracer) hooks() *exec.Hooks {
	return &exec.Hooks{
		PreKernel: func(n *graph.Node, in []*tensor.Tensor) error {
			t.mu.Lock()
			t.kIn, t.kStart = in, time.Now()
			t.mu.Unlock()
			return nil
		},
		PostKernel: func(n *graph.Node, out []*tensor.Tensor) error {
			end := time.Now()
			t.mu.Lock()
			defer t.mu.Unlock()
			d := end.Sub(t.kStart).Nanoseconds()
			t.spans = append(t.spans, span{
				Name: "kernel." + n.OpType, Parent: t.parent, Req: t.req,
				StartNS: t.kStart.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
			})
			if k := t.totals; k != nil {
				cls, ok := opClasses[n.OpType]
				if !ok {
					cls = classOther
				}
				k.ns[cls] += d
				switch cls {
				case classMatmul:
					if f := matmulFLOPs(t.kIn, out); f > 0 {
						k.matmulFLOP += f
						k.matmulFLOPNS += d
					}
				case classConv:
					if f := convFLOPs(t.kIn, out); f > 0 {
						k.convFLOP += f
						k.convFLOPNS += d
					}
				}
			}
			t.kIn = nil
			return nil
		},
	}
}

// matmulFLOPs computes 2·(output elements)·K from the hook shapes.
func matmulFLOPs(in, out []*tensor.Tensor) float64 {
	if len(in) < 2 || in[0] == nil || len(out) == 0 || out[0] == nil || len(in[0].Shape) == 0 {
		return 0
	}
	k := in[0].Shape[len(in[0].Shape)-1]
	return 2 * float64(out[0].Len()) * float64(k)
}

// convFLOPs computes 2·(output elements)·(Cin/groups)·kh·kw from the
// hook shapes: the weight is [Cout, Cin/groups, kh, kw].
func convFLOPs(in, out []*tensor.Tensor) float64 {
	if len(in) < 2 || in[1] == nil || len(out) == 0 || out[0] == nil || len(in[1].Shape) < 3 {
		return 0
	}
	per := 1.0
	for _, d := range in[1].Shape[1:] {
		per *= float64(d)
	}
	return 2 * float64(out[0].Len()) * per
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
