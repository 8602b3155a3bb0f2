package kernels

import "repro/internal/tensor"

// maxOperands bounds the tensors one walk addresses (Where: out, cond,
// x, y).
const maxOperands = 4

// walk is a row-major traversal of an iteration space in which every
// operand is addressed by its own strides: 0 along a dim it is broadcast
// over, permuted for a transpose, scaled and offset for a slice. Dims of
// extent 1 are dropped and adjacent dims that every operand crosses
// contiguously are merged, so a same-shape, scalar or trailing-bias
// broadcast collapses to one or two dims and kernels see long innermost
// runs. Building a walk costs O(rank); advancing it costs no division.
type walk struct {
	ext  []int64              // merged extents, outermost first; never empty
	str  [maxOperands][]int64 // per operand, one stride per merged dim
	base [maxOperands]int64   // per operand, offset of the first element
	nops int
	n    int64 // elements in the iteration space
}

func newWalk(shape []int64, strides ...[]int64) *walk {
	w := &walk{nops: len(strides), n: tensor.NumElems(shape)}
	room := len(shape) + 1 // a rank-0 shape still walks one dim
	buf := make([]int64, (1+w.nops)*room)
	w.ext = buf[:0:room]
	for k := range strides {
		w.str[k] = buf[(k+1)*room:][:0:room]
	}
	if w.n != 0 {
		for d, e := range shape {
			if e == 1 {
				continue
			}
			last := len(w.ext) - 1
			merge := last >= 0
			for k := 0; merge && k < w.nops; k++ {
				merge = w.str[k][last] == strides[k][d]*e
			}
			if merge {
				w.ext[last] *= e
				for k := 0; k < w.nops; k++ {
					w.str[k][last] = strides[k][d]
				}
				continue
			}
			w.ext = append(w.ext, e)
			for k := 0; k < w.nops; k++ {
				w.str[k] = append(w.str[k], strides[k][d])
			}
		}
	}
	if len(w.ext) == 0 { // a scalar, or nothing to visit
		w.ext = append(w.ext, w.n)
		for k := 0; k < w.nops; k++ {
			w.str[k] = append(w.str[k], 0)
		}
	}
	return w
}

// inner is operand k's stride along the innermost merged dim: the step
// between successive elements of a run.
func (w *walk) inner(k int) int64 { return w.str[k][len(w.ext)-1] }

// cursor steps through the innermost runs of one [lo,hi) stripe of a
// walk. After next reports true, n is the run's length and off[k] the
// index of its first element in operand k.
type cursor struct {
	w    *walk
	idx  []int64            // odometer over the outer merged dims
	row  [maxOperands]int64 // operand offsets at the start of the current row
	at   int64              // position in the row where the next run starts
	left int64              // elements of the stripe not yet handed out
	n    int64
	off  [maxOperands]int64
}

// seek positions a cursor at flat iteration index lo with one div/mod
// chain, so ParallelFor stripes can start anywhere, mid-row included.
func (w *walk) seek(lo, hi int64) cursor {
	c := cursor{w: w, row: w.base}
	if lo >= hi {
		return c
	}
	c.left = hi - lo
	last := len(w.ext) - 1
	c.idx = make([]int64, last)
	c.at = lo % w.ext[last]
	rem := lo / w.ext[last]
	for d := last - 1; d >= 0; d-- {
		c.idx[d] = rem % w.ext[d]
		rem /= w.ext[d]
		for k := 0; k < w.nops; k++ {
			c.row[k] += c.idx[d] * w.str[k][d]
		}
	}
	return c
}

func (c *cursor) next() bool {
	if c.left == 0 {
		return false
	}
	w := c.w
	last := len(w.ext) - 1
	if c.at == w.ext[last] { // row done: carry into the outer dims
		c.at = 0
		for d := last - 1; d >= 0; d-- {
			c.idx[d]++
			for k := 0; k < w.nops; k++ {
				c.row[k] += w.str[k][d]
			}
			if c.idx[d] < w.ext[d] {
				break
			}
			c.idx[d] = 0
			for k := 0; k < w.nops; k++ {
				c.row[k] -= w.str[k][d] * w.ext[d]
			}
		}
	}
	c.n = w.ext[last] - c.at
	if c.n > c.left {
		c.n = c.left
	}
	for k := 0; k < w.nops; k++ {
		c.off[k] = c.row[k] + c.at*w.str[k][last]
	}
	c.at += c.n
	c.left -= c.n
	return true
}

// binRuns writes out = op(x, y) over every run of c, whose operands are
// (out, x, y) with out contiguous along a run. The loop is chosen once
// per call from the inner strides: both contiguous, either side a
// broadcast scalar, or general. An op with vector loops (vec non-nil)
// runs the one for its run shape over the longest multiple of vecWidth
// elements of each contiguous or scalar run and op over the rest.
func binRuns[T, U any](op func(a, b T) U, vec *vecBodies[T, U], out []U, x, y []T, c *cursor) {
	sx, sy := c.w.inner(1), c.w.inner(2)
	for c.next() {
		o := out[c.off[0]:][:c.n]
		xo, yo := c.off[1], c.off[2]
		switch {
		case sx == 1 && sy == 1:
			xs, ys := x[xo:][:c.n], y[yo:][:c.n]
			if vec != nil {
				n := len(o) &^ (vecWidth - 1)
				vec.vv(o[:n], xs[:n], ys[:n])
				o, xs, ys = o[n:], xs[n:], ys[n:]
			}
			for i := range o {
				o[i] = op(xs[i], ys[i])
			}
		case sx == 1 && sy == 0:
			xs, yv := x[xo:][:c.n], y[yo]
			if vec != nil {
				n := len(o) &^ (vecWidth - 1)
				vec.vs(o[:n], xs[:n], yv)
				o, xs = o[n:], xs[n:]
			}
			for i := range o {
				o[i] = op(xs[i], yv)
			}
		case sx == 0 && sy == 1:
			xv, ys := x[xo], y[yo:][:c.n]
			if vec != nil {
				n := len(o) &^ (vecWidth - 1)
				vec.sv(o[:n], xv, ys[:n])
				o, ys = o[n:], ys[n:]
			}
			for i := range o {
				o[i] = op(xv, ys[i])
			}
		default:
			for i := range o {
				o[i] = op(x[xo], y[yo])
				xo += sx
				yo += sy
			}
		}
	}
}

// whereRuns writes out = cond ? x : y over every run of c, whose
// operands are (out, cond, x, y) with out contiguous along a run.
func whereRuns[T any](out []T, cond []bool, x, y []T, c *cursor) {
	sc, sx, sy := c.w.inner(1), c.w.inner(2), c.w.inner(3)
	for c.next() {
		o := out[c.off[0]:][:c.n]
		co, xo, yo := c.off[1], c.off[2], c.off[3]
		if sc == 1 && sx == 1 && sy == 1 {
			cs, xs, ys := cond[co:][:c.n], x[xo:][:c.n], y[yo:][:c.n]
			for i := range o {
				if cs[i] {
					o[i] = xs[i]
				} else {
					o[i] = ys[i]
				}
			}
			continue
		}
		for i := range o {
			if cond[co] {
				o[i] = x[xo]
			} else {
				o[i] = y[yo]
			}
			co += sc
			xo += sx
			yo += sy
		}
	}
}

// copyRuns writes dst = src over every run of c, whose operands are
// (dst, src).
func copyRuns[T any](dst, src []T, c *cursor) {
	sd, ss := c.w.inner(0), c.w.inner(1)
	for c.next() {
		do, so := c.off[0], c.off[1]
		switch {
		case sd == 1 && ss == 1:
			copy(dst[do:do+c.n], src[so:so+c.n])
		case sd == 1 && ss == 0:
			d, v := dst[do:do+c.n], src[so]
			for i := range d {
				d[i] = v
			}
		case sd == 1:
			d := dst[do : do+c.n]
			for i := range d {
				d[i] = src[so]
				so += ss
			}
		default:
			for i := int64(0); i < c.n; i++ {
				dst[do] = src[so]
				do += sd
				so += ss
			}
		}
	}
}

// copyWalk moves every element w visits from src to dst, whatever the
// (shared) element type; w's operands are (dst, src).
func copyWalk(dst, src *tensor.Tensor, w *walk) {
	c := w.seek(0, w.n)
	switch src.DType {
	case tensor.Float32:
		copyRuns(dst.F, src.F, &c)
	case tensor.Int64:
		copyRuns(dst.I, src.I, &c)
	case tensor.Bool:
		copyRuns(dst.B, src.B, &c)
	}
}

// copySpan copies n contiguous elements of src at si to dst at di.
func copySpan(dst *tensor.Tensor, di int64, src *tensor.Tensor, si, n int64) {
	switch src.DType {
	case tensor.Float32:
		copy(dst.F[di:di+n], src.F[si:si+n])
	case tensor.Int64:
		copy(dst.I[di:di+n], src.I[si:si+n])
	case tensor.Bool:
		copy(dst.B[di:di+n], src.B[si:si+n])
	}
}
