package frameworks

import (
	"slices"
	"sync"

	"repro/internal/exec"
	"repro/internal/lattice"
	"repro/internal/memplan"
	"repro/internal/symbolic"
)

// arenaBuf is one planned run's arena storage, kept for the next: the
// backing buffer — grown to the largest fitted arena it has held, never
// cleared, because every kernel writes its slot in full before anything
// reads it — the kernels' scratch, kept the same way, and the offsets
// and sizes of the layout last fitted into it.
type arenaBuf struct {
	buf, scratch []float32
	offs, sizes  []int64
}

// arenaStack holds the arenaBufs of a Compiled that no planned run is
// using. A run pops one, or makes one when the stack is empty, and
// pushes it back once its outputs are detached from it, so the stack
// holds at most one buffer per planned run the Compiled has served at
// once. Unlike a sync.Pool it has no size classes and the garbage
// collector never empties it.
type arenaStack struct {
	mu   sync.Mutex
	free []*arenaBuf
}

func (s *arenaStack) pop() *arenaBuf {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.free)
	if n == 0 {
		return &arenaBuf{}
	}
	ab := s.free[n-1]
	s.free = s.free[:n-1]
	return ab
}

func (s *arenaStack) push(ab *arenaBuf) {
	s.mu.Lock()
	s.free = append(s.free, ab)
	s.mu.Unlock()
}

// fit binds layout l to one request: each buffer's size is its RDP shape
// evaluated under the request's symbols, Layout.Fit places the buffers
// at those sizes, and the arena is laid over ab's buffer, grown when the
// fitted arena outgrows it. A size past the one l was planned at breaks
// Fit's premise; the request then keeps l's own offsets and slot sizes,
// and placing the oversized tensor is an arena fault (planned → dynamic).
func (ab *arenaBuf) fit(l *memplan.Layout, infos map[string]lattice.Info, env symbolic.Env) *exec.Arena {
	n := len(l.Names)
	ab.offs = slices.Grow(ab.offs[:0], n)[:n]
	ab.sizes = slices.Grow(ab.sizes[:0], n)[:n]
	for i, name := range l.Names {
		ab.sizes[i] = evalBytes(infos[name].Shape, env)
	}
	size, ok := l.Fit(ab.sizes, ab.offs)
	if !ok {
		copy(ab.offs, l.Offsets)
		copy(ab.sizes, l.Sizes)
		size = l.ArenaSize
	}
	words := int((size + 3) / 4)
	if cap(ab.buf) < words {
		ab.buf = make([]float32, words)
	}
	a := exec.NewArena(l.Index, ab.offs, ab.sizes, ab.buf[:words])
	a.Scratch = &ab.scratch
	return a
}

// evalBytes evaluates a lattice shape's byte size under env (float32
// element size; 0 when the shape cannot be resolved statically).
func evalBytes(s lattice.Shape, env symbolic.Env) int64 {
	if s.Kind != lattice.ShapeRanked {
		return 0
	}
	n := int64(1)
	for _, d := range s.Dims {
		if !d.IsExpr() {
			return 0
		}
		v, err := d.E.Eval(env)
		if err != nil || v < 0 {
			return 0
		}
		n *= v
	}
	return n * 4
}
