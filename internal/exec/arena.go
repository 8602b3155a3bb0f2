package exec

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Typed arena faults. All three mark plan-vs-runtime disagreements the
// guarded executor can recover from by falling back to the dynamic
// allocator (use errors.Is, or IsArenaFault for the whole class).
var (
	// ErrArenaExhausted reports an allocation the memory ran out for: the
	// out-of-memory sentinel an OnAlloc hook (the fault injector's OOM
	// mode) returns.
	ErrArenaExhausted = errors.New("arena budget exhausted")
	// ErrArenaOverflow reports a placement past its slot or past the
	// arena's backing store.
	ErrArenaOverflow = errors.New("exceeds arena")
	// ErrArenaMisaligned reports an unaligned planned offset.
	ErrArenaMisaligned = errors.New("misaligned arena offset")
)

// IsArenaFault reports whether err belongs to the arena fault class.
func IsArenaFault(err error) bool {
	return errors.Is(err, ErrArenaExhausted) ||
		errors.Is(err, ErrArenaOverflow) ||
		errors.Is(err, ErrArenaMisaligned)
}

// Arena is a runtime memory-allocation plan laid over one backing
// buffer: float32 intermediates with a planned slot are stored in it
// instead of individually allocated. This is the execution-time half of
// SoD²'s dynamic memory planning (§4.4.1) — and running with it
// validates the plan end to end: if two concurrently-live tensors were
// assigned overlapping ranges, the model outputs would be corrupted.
//
// Kernels write a planned output straight into its slot (the run's
// kernels.Dest hands the slot out); only an output that missed its slot
// is copied in afterwards, or refused as an arena fault.
type Arena struct {
	// Slots maps each planned value to its slot: an index into Offsets
	// and Sizes.
	Slots map[string]int
	// Offsets and Sizes are the slots' byte offsets and byte sizes. A
	// tensor larger than its slot fails with ErrArenaOverflow instead of
	// spilling into the slot above it.
	Offsets, Sizes []int64
	// HighWater is the highest byte actually touched by placements.
	HighWater int64
	// Scratch, when non-nil, keeps the kernels' scratch (Conv's im2col
	// panels, MaxPool's row pass, the int8 MatMul's widened panel)
	// across runs like buf: grown when a kernel asks for more, never
	// cleared. Nil gives every kernel call fresh scratch. An Arena with
	// no slots and a Scratch is how a run that allocates every
	// intermediate still keeps its scratch.
	Scratch *[]float32

	buf []float32
}

// NewArena lays slots (see Arena) over buf, which should reach the end
// of the highest slot. The arena neither allocates nor clears its
// storage: buf is the caller's, who may hand it to a later run once this
// one has returned and its outputs are detached. Every kernel writes
// each element of its output before reading it, so nothing a previous
// run left in buf is ever observed — but a tensor viewing buf is valid
// only until that reuse.
func NewArena(slots map[string]int, offsets, sizes []int64, buf []float32) *Arena {
	return &Arena{Slots: slots, Offsets: offsets, Sizes: sizes, buf: buf}
}

// Detach replaces every tensor in outputs whose storage aliases the
// arena's backing buffer with an independent clone, so an output that
// lives on neither pins the whole multi-MB buffer nor sees its next run
// overwrite it. Aliases are detected by storage address: kernels write
// fresh storage or their own slots, so the only outputs that view
// another value's slot are the ones control flow forwards (a Combine
// handing on a Switch arm or a branch result under a new name).
func (a *Arena) Detach(outputs map[string]*tensor.Tensor) {
	if a == nil || len(a.buf) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(a.buf)))
	hi := lo + uintptr(len(a.buf))*unsafe.Sizeof(float32(0))
	for name, t := range outputs {
		if t == nil || t.DType != tensor.Float32 || len(t.F) == 0 {
			continue
		}
		p := uintptr(unsafe.Pointer(unsafe.SliceData(t.F)))
		if p >= lo && p < hi {
			outputs[name] = t.Clone()
		}
	}
}

// detachCallerOwned replaces every output whose storage is a graph
// input's or an initializer's with an independent clone. Switch and
// Combine forward their tensors, so Combine(…, Switch(p, x)) returns x
// itself under another name; handed out as is, a caller mutating its
// output would change its own input, or the model's weights for every
// later run. values holds the run's inputs and initializers.
func detachCallerOwned(g *graph.Graph, values, outputs map[string]*tensor.Tensor) {
	owned := func(p unsafe.Pointer) bool {
		for _, in := range g.Inputs {
			if storage(values[in.Name]) == p {
				return true
			}
		}
		for _, w := range g.Initializers {
			if storage(w) == p {
				return true
			}
		}
		return false
	}
	for name, t := range outputs {
		if p := storage(t); p != nil && owned(p) {
			outputs[name] = t.Clone()
		}
	}
}

// storage is the address of t's elements (nil for a nil or empty
// tensor): two tensors with the same storage share their data.
func storage(t *tensor.Tensor) unsafe.Pointer {
	switch {
	case t == nil:
		return nil
	case len(t.F) > 0:
		return unsafe.Pointer(unsafe.SliceData(t.F))
	case len(t.I) > 0:
		return unsafe.Pointer(unsafe.SliceData(t.I))
	case len(t.B) > 0:
		return unsafe.Pointer(unsafe.SliceData(t.B))
	case t.Q != nil:
		return unsafe.Pointer(t.Q)
	}
	return nil
}

// span returns the n floats of name's slot, raising HighWater to their
// end, or nil when name has no slot. A slot that cannot hold n floats
// at an aligned offset inside the buffer is an arena fault.
func (a *Arena) span(name string, n int64) ([]float32, error) {
	slot, ok := a.Slots[name]
	if !ok {
		return nil, nil
	}
	off := a.Offsets[slot]
	if off < 0 || off%4 != 0 {
		return nil, fmt.Errorf("exec: %s at offset %d: %w", name, off, ErrArenaMisaligned)
	}
	if n*4 > a.Sizes[slot] {
		return nil, fmt.Errorf("exec: %s of %d bytes %w: its slot at %d holds %d", name, n*4, ErrArenaOverflow, off, a.Sizes[slot])
	}
	start := off / 4
	if start+n > int64(len(a.buf)) {
		return nil, fmt.Errorf("exec: %s [%d,%d) %w of %d floats", name, start, start+n, ErrArenaOverflow, int64(len(a.buf)))
	}
	a.HighWater = max(a.HighWater, off+n*4)
	return a.buf[start : start+n : start+n], nil
}

// place stores a produced tensor in its planned slot and returns the
// arena-backed tensor. A tensor its kernel already wrote into the slot
// is returned as it is; any other is checked against the slot and
// copied in. Tensors without a slot (dynamic fallback: ⊥-shaped values,
// non-float tensors) pass through unchanged.
func (a *Arena) place(name string, t *tensor.Tensor) (*tensor.Tensor, error) {
	if a == nil || t == nil || t.DType != tensor.Float32 {
		return t, nil
	}
	dst, err := a.span(name, t.Len())
	if dst == nil || err != nil {
		return t, err
	}
	if len(dst) == 0 || unsafe.SliceData(dst) == unsafe.SliceData(t.F) {
		return t, nil
	}
	copy(dst, t.F)
	return &tensor.Tensor{DType: tensor.Float32, Shape: t.Shape, F: dst}, nil
}

// arenaDest is the kernels.Dest of a run with an arena: the running
// node's float32 outputs go straight into their slots, and its scratch
// into the arena's kept scratch.
type arenaDest struct {
	a *Arena
	// outs are the output names of the node whose kernel is running.
	outs []string
}

// Out hands the kernel the slot of the node's i-th output, or nil (heap)
// when it has none or cannot hold n floats; place then raises that
// tensor's arena fault.
func (d *arenaDest) Out(i int, n int64) []float32 {
	if i >= len(d.outs) || d.outs[i] == "" {
		return nil
	}
	f, _ := d.a.span(d.outs[i], n)
	return f
}

// Scratch returns n floats of the arena's kept scratch, growing it.
func (d *arenaDest) Scratch(n int64) []float32 {
	s := d.a.Scratch
	if s == nil {
		return make([]float32, n)
	}
	if int64(cap(*s)) < n {
		*s = make([]float32, n)
	}
	return (*s)[:n]
}
