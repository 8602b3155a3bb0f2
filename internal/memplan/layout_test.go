package memplan

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestLayoutFitProperty: on random programs, the PeakFirst layout fitted
// to any sizes no larger than the planned ones is a valid plan for the
// program at those sizes, its arena is no larger than the planned one,
// and no buffer sits higher than it was planned. A size above the
// planned one is refused.
func TestLayoutFitProperty(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for iter := 0; iter < 400; iter++ {
		n := r.Intn(24) + 1
		p := &Program{Steps: n + 4}
		for i := 0; i < n; i++ {
			birth := r.Intn(p.Steps)
			p.Bufs = append(p.Bufs, Buf{
				Name:  fmt.Sprintf("b%d", i),
				Size:  int64(r.Intn(256) + 1),
				Birth: birth,
				Death: birth + r.Intn(p.Steps-birth),
			})
		}
		worst := PeakFirst(p)
		if err := worst.Validate(p); err != nil {
			t.Fatalf("iter %d: worst-case plan: %v", iter, err)
		}
		l := NewLayout(worst, p)
		sizes, offs := make([]int64, n), make([]int64, n)
		for draw := 0; draw < 8; draw++ {
			for j := range sizes {
				sizes[j] = r.Int63n(l.Sizes[j] + 1)
			}
			arena, ok := l.Fit(sizes, offs)
			if !ok {
				t.Fatalf("iter %d: sizes %v within the planned %v refused", iter, sizes, l.Sizes)
			}
			fitted := &Program{Steps: p.Steps}
			plan := &Plan{Offsets: map[string]int64{}, ArenaSize: arena}
			for _, b := range p.Bufs {
				j := l.Index[b.Name]
				b.Size = sizes[j]
				fitted.Bufs = append(fitted.Bufs, b)
				plan.Offsets[b.Name] = offs[j]
				if offs[j] > worst.Offsets[b.Name] {
					t.Fatalf("iter %d: %s fitted at %d, above its planned %d", iter, b.Name, offs[j], worst.Offsets[b.Name])
				}
			}
			if err := plan.Validate(fitted); err != nil {
				t.Fatalf("iter %d: fitted layout: %v", iter, err)
			}
			if arena > worst.ArenaSize {
				t.Fatalf("iter %d: fitted arena %d above the planned %d", iter, arena, worst.ArenaSize)
			}
		}
		copy(sizes, l.Sizes)
		sizes[r.Intn(n)]++
		if _, ok := l.Fit(sizes, offs); ok {
			t.Fatalf("iter %d: a size above the planned one was fitted", iter)
		}
	}
}
