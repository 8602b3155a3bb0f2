package exec

import (
	"errors"
	"fmt"
	"unsafe"

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

	buf []float32
}

// NewArena lays slots (see Arena) over buf, which should reach the end
// of the highest slot. The arena neither allocates nor clears its
// storage: buf is the caller's, who may hand it to a later run once this
// one has returned and its outputs are detached. No slot is read before
// place has written it in full, so nothing a previous run left in buf is
// ever observed — but a tensor viewing buf is valid only until that
// reuse.
func NewArena(slots map[string]int, offsets, sizes []int64, buf []float32) *Arena {
	return &Arena{Slots: slots, Offsets: offsets, Sizes: sizes, buf: buf}
}

// Detach replaces every tensor in outputs whose storage aliases the
// arena's backing buffer with an independent clone, so an output that
// lives on neither pins the whole multi-MB buffer nor sees its next run
// overwrite it. Aliases are detected by storage address, which also
// catches view-producing kernels (Reshape) that forward an arena-placed
// buffer under a different name.
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

// place copies a freshly produced tensor into its planned slot and
// returns the arena-backed view; tensors without a slot (dynamic
// fallback: ⊥-shaped values, non-float tensors) pass through unchanged.
func (a *Arena) place(name string, t *tensor.Tensor) (*tensor.Tensor, error) {
	if a == nil || t == nil || t.DType != tensor.Float32 {
		return t, nil
	}
	slot, ok := a.Slots[name]
	if !ok {
		return t, nil
	}
	off, n := a.Offsets[slot], t.Len()
	if off < 0 || off%4 != 0 {
		return nil, fmt.Errorf("exec: %s at offset %d: %w", name, off, ErrArenaMisaligned)
	}
	if n*4 > a.Sizes[slot] {
		return nil, fmt.Errorf("exec: %s of %d bytes %w: its slot at %d holds %d", name, n*4, ErrArenaOverflow, off, a.Sizes[slot])
	}
	end := off + n*4
	start := off / 4
	if start+n > int64(len(a.buf)) {
		return nil, fmt.Errorf("exec: %s [%d,%d) %w of %d floats", name, start, start+n, ErrArenaOverflow, int64(len(a.buf)))
	}
	if end > a.HighWater {
		a.HighWater = end
	}
	dst := a.buf[start : start+n]
	copy(dst, t.F)
	return &tensor.Tensor{DType: tensor.Float32, Shape: t.Shape, F: dst}, nil
}
