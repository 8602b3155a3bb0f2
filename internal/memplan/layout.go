package memplan

import (
	"cmp"
	"slices"
)

// Layout is a valid plan's placement order: the part of a plan that
// survives a change of buffer sizes. The buffers are listed by ascending
// planned offset, and each one records the buffers whose lifetimes
// overlap its own and which lie entirely below it in the plan. Fit lays
// the same buffers out again at any sizes no larger than the planned
// ones — how a region-wide worst-case plan serves one request at the
// sizes that request binds (offsets proven on symbolic shapes, fixed at
// run time, as in BladeDISC++).
//
// A Layout is read-only once built and safe to share between requests.
type Layout struct {
	// Names, Offsets and Sizes list the buffers by ascending planned
	// offset (ties by planned end), each at the offset and size the plan
	// placed it with.
	Names   []string
	Offsets []int64
	Sizes   []int64
	// Index maps a buffer name to its position in Names.
	Index map[string]int
	// ArenaSize is the planned arena size.
	ArenaSize int64

	// below[belowAt[j]:belowAt[j+1]] are the positions of the buffers
	// below Names[j]: live together with it, planned entirely beneath it.
	below   []int32
	belowAt []int32
}

// NewLayout records pl's placement order over p. pl must be valid for p
// (pl.Validate(p) == nil): every two buffers live at the same time are
// then disjoint in the plan, so one of them lies below the other and the
// pair is an edge — which is what keeps every fitted layout overlap-free.
func NewLayout(pl *Plan, p *Program) *Layout {
	bufs := slices.Clone(p.Bufs)
	end := func(b Buf) int64 { return pl.Offsets[b.Name] + b.Size }
	slices.SortStableFunc(bufs, func(a, b Buf) int {
		if c := cmp.Compare(pl.Offsets[a.Name], pl.Offsets[b.Name]); c != 0 {
			return c
		}
		return cmp.Compare(end(a), end(b))
	})
	n := len(bufs)
	l := &Layout{
		Names:     make([]string, n),
		Offsets:   make([]int64, n),
		Sizes:     make([]int64, n),
		Index:     make(map[string]int, n),
		ArenaSize: pl.ArenaSize,
		belowAt:   make([]int32, 0, n+1),
	}
	for j, b := range bufs {
		l.Names[j], l.Offsets[j], l.Sizes[j] = b.Name, pl.Offsets[b.Name], b.Size
		l.Index[b.Name] = j
		l.belowAt = append(l.belowAt, int32(len(l.below)))
		// Sorted by offset then end, a buffer below b always sits at an
		// earlier position: the edges form a DAG Fit walks in one pass.
		for i, a := range bufs[:j] {
			if overlapLife(a, b) && end(a) <= l.Offsets[j] {
				l.below = append(l.below, int32(i))
			}
		}
	}
	l.belowAt = append(l.belowAt, int32(len(l.below)))
	return l
}

// Fit lays the buffers out at sizes (indexed like Names), writing each
// offset — the highest end among the buffers below it — to offs, and
// returns the fitted arena size. Buffers live at the same time never
// overlap, and, by induction up the planned order, no fitted offset (so
// no fitted arena) exceeds the planned one. Both rest on every size being
// at most its planned size: ok is false, and offs unspecified, when one
// is not. One pass over buffers and edges; Fit allocates nothing.
func (l *Layout) Fit(sizes, offs []int64) (arena int64, ok bool) {
	for j := range l.Names {
		if sizes[j] < 0 || sizes[j] > l.Sizes[j] {
			return 0, false
		}
		var off int64
		for _, i := range l.below[l.belowAt[j]:l.belowAt[j+1]] {
			off = max(off, offs[i]+sizes[i])
		}
		offs[j] = off
		arena = max(arena, off+sizes[j])
	}
	return arena, true
}
