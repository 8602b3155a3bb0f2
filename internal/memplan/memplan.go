// Package memplan implements SoD²'s memory allocation planning
// (paper §4.4.1): given an operator execution order and the byte sizes of
// intermediate tensors, it assigns every tensor an offset in one linear
// arena so that concurrently-live tensors never overlap. Three planners
// are provided: SoD²'s peak-first bidirectional greedy, the MNN-style
// best-fit greedy baseline, and an exhaustive optimal search for small
// programs (used by the 1.05×-vs-1.16×-of-optimal ablation).
package memplan

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Buf is one intermediate tensor to be placed in the arena.
type Buf struct {
	Name string
	Size int64
	// Birth and Death delimit the buffer's live interval in step indices
	// (inclusive): it must be addressable from Birth through Death.
	Birth, Death int
}

// Program is the sequence of buffers in allocation order with lifetimes
// derived from an execution order.
type Program struct {
	Bufs  []Buf
	Steps int
}

// Plan maps each buffer to its arena offset.
type Plan struct {
	Offsets   map[string]int64
	ArenaSize int64
	Strategy  string
}

// overlapLife reports whether two buffers are ever live simultaneously.
func overlapLife(a, b Buf) bool {
	return a.Birth <= b.Death && b.Birth <= a.Death
}

// PeakLive returns the maximum sum of sizes of simultaneously-live
// buffers — the information-theoretic lower bound on the arena size.
func (p *Program) PeakLive() int64 {
	var peak int64
	for s := 0; s < p.Steps; s++ {
		var live int64
		for _, b := range p.Bufs {
			if b.Birth <= s && s <= b.Death {
				live += b.Size
			}
		}
		if live > peak {
			peak = live
		}
	}
	return peak
}

// peakStep returns the step index with maximum live bytes.
func (p *Program) peakStep() int {
	var peak int64
	best := 0
	for s := 0; s < p.Steps; s++ {
		var live int64
		for _, b := range p.Bufs {
			if b.Birth <= s && s <= b.Death {
				live += b.Size
			}
		}
		if live > peak {
			peak, best = live, s
		}
	}
	return best
}

// span is a placed buffer's byte range in the arena.
type span struct{ lo, hi int64 }

// placeAll places bufs in the given order: each goes at the offset fit
// picks given the arena ranges (sorted by offset) of the already-placed
// buffers whose lifetimes overlap its own.
func placeAll(bufs []Buf, fit func(size int64, conflicts []span) int64) map[string]int64 {
	offsets := make(map[string]int64, len(bufs))
	var conflicts []span
	for i, b := range bufs {
		conflicts = conflicts[:0]
		for _, o := range bufs[:i] {
			if overlapLife(b, o) {
				off := offsets[o.Name]
				conflicts = append(conflicts, span{off, off + o.Size})
			}
		}
		slices.SortFunc(conflicts, func(x, y span) int { return cmp.Compare(x.lo, y.lo) })
		offsets[b.Name] = fit(b.Size, conflicts)
	}
	return offsets
}

// firstFit returns the lowest offset where size bytes fit between the
// conflicting ranges.
func firstFit(size int64, conflicts []span) int64 {
	cursor := int64(0)
	for _, c := range conflicts {
		if c.lo-cursor >= size {
			return cursor
		}
		if c.hi > cursor {
			cursor = c.hi
		}
	}
	return cursor
}

// bestFit returns the offset of the smallest gap between the
// conflicting ranges that fits size bytes (MNN's "minimal memory slot
// currently available" policy), or the end of the occupied range.
func bestFit(size int64, conflicts []span) int64 {
	bestOff := int64(-1)
	bestGap := int64(-1)
	cursor := int64(0)
	for _, c := range conflicts {
		gap := c.lo - cursor
		if gap >= size && (bestGap == -1 || gap < bestGap) {
			bestOff, bestGap = cursor, gap
		}
		if c.hi > cursor {
			cursor = c.hi
		}
	}
	if bestOff >= 0 {
		return bestOff
	}
	return cursor
}

func finish(p *Program, offsets map[string]int64, strategy string) *Plan {
	var arena int64
	for _, b := range p.Bufs {
		if end := offsets[b.Name] + b.Size; end > arena {
			arena = end
		}
	}
	return &Plan{Offsets: offsets, ArenaSize: arena, Strategy: strategy}
}

// BestFit is the baseline greedy planner: buffers are placed in
// allocation (birth) order into the smallest currently-available slot.
func BestFit(p *Program) *Plan {
	bufs := append([]Buf(nil), p.Bufs...)
	sort.SliceStable(bufs, func(i, j int) bool { return bufs[i].Birth < bufs[j].Birth })
	return finish(p, placeAll(bufs, bestFit), "best-fit")
}

// PeakFirst is SoD²'s planner: placement starts from the peak-memory
// step — those buffers are packed contiguously from offset 0 — and then
// proceeds outward in both directions (paper insight: memory requirement
// decreases monotonically away from the peak for most sub-graphs), using
// first-fit against already-placed buffers.
func PeakFirst(p *Program) *Plan {
	peak := p.peakStep()
	// Order: buffers live at the peak (largest first), then the rest by
	// distance of their lifetime from the peak step.
	bufs := append([]Buf(nil), p.Bufs...)
	dist := func(b Buf) int {
		if b.Birth <= peak && peak <= b.Death {
			return 0
		}
		if b.Death < peak {
			return peak - b.Death
		}
		return b.Birth - peak
	}
	sort.SliceStable(bufs, func(i, j int) bool {
		di, dj := dist(bufs[i]), dist(bufs[j])
		if di != dj {
			return di < dj
		}
		if bufs[i].Size != bufs[j].Size {
			return bufs[i].Size > bufs[j].Size
		}
		return bufs[i].Name < bufs[j].Name
	})
	return finish(p, placeAll(bufs, firstFit), "peak-first")
}

// Optimal exhaustively searches placement orders (first-fit per order)
// and returns the minimum-arena plan. It is exponential and refuses
// programs with more than maxN buffers.
func Optimal(p *Program, maxN int) (*Plan, error) {
	if maxN <= 0 {
		maxN = 9
	}
	n := len(p.Bufs)
	if n > maxN {
		return nil, fmt.Errorf("memplan: %d buffers exceeds exhaustive cap %d", n, maxN)
	}
	if n == 0 {
		return &Plan{Offsets: map[string]int64{}, Strategy: "optimal"}, nil
	}
	lower := p.PeakLive()
	var best *Plan
	perm := make([]int, n)
	ordered := make([]Buf, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if best != nil && best.ArenaSize == lower {
			return // provably optimal already
		}
		if k == n {
			for i, idx := range perm {
				ordered[i] = p.Bufs[idx]
			}
			plan := finish(p, placeAll(ordered, firstFit), "optimal")
			if best == nil || plan.ArenaSize < best.ArenaSize {
				best = plan
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return best, nil
}

// OverlapError identifies the exact pair of buffers whose arena slots
// collide while both are live: the buffer names, their byte ranges, and
// the step range over which their lifetimes intersect.
type OverlapError struct {
	AName, BName     string
	AOff, BOff       int64
	ASize, BSize     int64
	FromStep, ToStep int
}

func (e *OverlapError) Error() string {
	return fmt.Sprintf("memplan: %s [%d,%d) overlaps %s [%d,%d) while both live (steps %d..%d)",
		e.AName, e.AOff, e.AOff+e.ASize, e.BName, e.BOff, e.BOff+e.BSize, e.FromStep, e.ToStep)
}

// Validate checks that no two concurrently-live buffers overlap in the
// arena — the safety invariant of any plan. A violation comes back as an
// *OverlapError naming the offending pair and the steps they collide on.
func (pl *Plan) Validate(p *Program) error {
	for i := 0; i < len(p.Bufs); i++ {
		for j := i + 1; j < len(p.Bufs); j++ {
			a, b := p.Bufs[i], p.Bufs[j]
			if !overlapLife(a, b) {
				continue
			}
			ao, bo := pl.Offsets[a.Name], pl.Offsets[b.Name]
			if ao < bo+b.Size && bo < ao+a.Size {
				from, to := a.Birth, a.Death
				if b.Birth > from {
					from = b.Birth
				}
				if b.Death < to {
					to = b.Death
				}
				return &OverlapError{
					AName: a.Name, BName: b.Name,
					AOff: ao, BOff: bo,
					ASize: a.Size, BSize: b.Size,
					FromStep: from, ToStep: to,
				}
			}
		}
	}
	for _, b := range p.Bufs {
		if _, ok := pl.Offsets[b.Name]; !ok {
			return fmt.Errorf("memplan: %s not placed", b.Name)
		}
	}
	return nil
}
