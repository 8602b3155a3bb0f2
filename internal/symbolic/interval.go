package symbolic

import (
	"fmt"
)

// Interval is a strided integer interval: the set of values
//
//	{ Lo, Lo+Stride, Lo+2*Stride, ..., Hi }
//
// with Lo <= Hi and Stride >= 1 (Hi-Lo is always a multiple of Stride).
// It is the abstract domain of the static plan verifier's range
// analysis: every symbolic dimension is mapped to the interval of values
// it can take over a model's declared input region, and expressions are
// bounded by sound interval arithmetic. The stride component carries the
// alignment of a model's sampling stride (YOLO-v6's H∈[224,640]/32,
// every member ≡ 0 mod 32), which keeps floor-division and modulo bounds exact
// instead of collapsing to [0, m-1].
type Interval struct {
	Lo, Hi int64
	Stride int64
}

// Point returns the singleton interval {v}.
func Point(v int64) Interval { return Interval{Lo: v, Hi: v, Stride: 1} }

// NewInterval returns the strided interval [lo, hi] with the given
// stride, normalizing Hi down to the largest reachable value. A
// non-positive stride is treated as 1. An empty interval (hi < lo) is
// returned as-is; use IsEmpty to test for it.
func NewInterval(lo, hi, stride int64) Interval {
	if stride <= 0 {
		stride = 1
	}
	if hi > lo {
		hi = lo + ((hi-lo)/stride)*stride
	}
	if hi == lo {
		stride = 1
	}
	return Interval{Lo: lo, Hi: hi, Stride: stride}
}

// IsEmpty reports whether the interval contains no values.
func (iv Interval) IsEmpty() bool { return iv.Hi < iv.Lo }

// IsPoint reports whether the interval is a singleton.
func (iv Interval) IsPoint() bool { return iv.Lo == iv.Hi }

// Contains reports whether v is a member of the strided interval.
func (iv Interval) Contains(v int64) bool {
	if v < iv.Lo || v > iv.Hi {
		return false
	}
	s := iv.Stride
	if s <= 1 {
		return true
	}
	return (v-iv.Lo)%s == 0
}

// Count returns the number of values in the interval.
func (iv Interval) Count() int64 {
	if iv.IsEmpty() {
		return 0
	}
	s := iv.Stride
	if s <= 0 {
		s = 1
	}
	return (iv.Hi-iv.Lo)/s + 1
}

// Intersect returns the intersection of two strided intervals. The
// result may be empty (IsEmpty). Stride intersection is conservative:
// when the residues are incompatible the result is empty; otherwise the
// combined stride is lcm(a.Stride, b.Stride) aligned to the first
// common member.
func (iv Interval) Intersect(o Interval) Interval {
	lo := iv.Lo
	if o.Lo > lo {
		lo = o.Lo
	}
	hi := iv.Hi
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		return Interval{Lo: 1, Hi: 0, Stride: 1}
	}
	sa, sb := iv.Stride, o.Stride
	if sa <= 1 && sb <= 1 {
		return NewInterval(lo, hi, 1)
	}
	if sa <= 0 {
		sa = 1
	}
	if sb <= 0 {
		sb = 1
	}
	// Find the first value >= lo in both progressions by scanning one
	// lcm window (strides here are tiny: sampling steps like 8 or 32).
	l := lcm(sa, sb)
	for v := lo; v < lo+l && v <= hi; v++ {
		if iv.Contains(v) && o.Contains(v) {
			return NewInterval(v, hi, l)
		}
	}
	return Interval{Lo: 1, Hi: 0, Stride: 1}
}

func (iv Interval) String() string {
	if iv.IsEmpty() {
		return "∅"
	}
	if iv.IsPoint() {
		return fmt.Sprintf("{%d}", iv.Lo)
	}
	if iv.Stride > 1 {
		return fmt.Sprintf("[%d,%d]/%d", iv.Lo, iv.Hi, iv.Stride)
	}
	return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi)
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}

// strideOf returns the progression stride for arithmetic combination:
// 0 for singletons (no constraint contributed), else the stride.
func strideOf(iv Interval) int64 {
	if iv.IsPoint() {
		return 0
	}
	if iv.Stride <= 0 {
		return 1
	}
	return iv.Stride
}

// combStride merges two progression strides: gcd, with 0 as identity.
func combStride(a, b int64) int64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	return gcd(a, b)
}

func addIv(a, b Interval) Interval {
	return NewInterval(a.Lo+b.Lo, a.Hi+b.Hi, combStride(strideOf(a), strideOf(b)))
}

// scaleIv multiplies every member by the constant c.
func scaleIv(a Interval, c int64) Interval {
	if c == 0 {
		return Point(0)
	}
	lo, hi := a.Lo*c, a.Hi*c
	if lo > hi {
		lo, hi = hi, lo
	}
	s := strideOf(a) * c
	if s < 0 {
		s = -s
	}
	return NewInterval(lo, hi, s)
}

func mulIv(a, b Interval) Interval {
	if a.IsPoint() {
		return scaleIv(b, a.Lo)
	}
	if b.IsPoint() {
		return scaleIv(a, b.Lo)
	}
	// General product: bounds from the four corner products; the stride
	// of a product of two non-trivial progressions degrades to the gcd
	// of the cross terms (sound but usually 1).
	c := [4]int64{a.Lo * b.Lo, a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	s := combStride(gcd(strideOf(a)*gcd(b.Lo, strideOf(b)), strideOf(b)*gcd(a.Lo, strideOf(a))), 0)
	if s == 0 {
		s = 1
	}
	return NewInterval(lo, hi, s)
}

// divIv bounds floor(x/y). The divisor interval must not contain zero.
func divIv(x, y Interval) (Interval, error) {
	if y.Contains(0) || (y.Lo < 0 && y.Hi > 0) {
		return Interval{}, fmt.Errorf("symbolic: divisor range %s may be zero", y)
	}
	if y.IsPoint() {
		d := y.Lo
		lo, hi := floorDiv(x.Lo, d), floorDiv(x.Hi, d)
		if lo > hi {
			lo, hi = hi, lo
		}
		// An arithmetic progression divided by a divisor of its stride
		// stays an exact progression: floor((Lo+k*S)/d) = floor(Lo/d)+k*S/d.
		s := int64(1)
		if xs := strideOf(x); xs != 0 && d != 0 && xs%d == 0 {
			s = xs / d
			if s < 0 {
				s = -s
			}
		}
		return NewInterval(lo, hi, s), nil
	}
	c := [4]int64{floorDiv(x.Lo, y.Lo), floorDiv(x.Lo, y.Hi), floorDiv(x.Hi, y.Lo), floorDiv(x.Hi, y.Hi)}
	lo, hi := c[0], c[0]
	for _, v := range c[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return NewInterval(lo, hi, 1), nil
}

// modIv bounds x mod y under Go's floor-mod semantics (result carries
// the divisor's sign). The divisor interval must not contain zero.
func modIv(x, y Interval) (Interval, error) {
	if y.Contains(0) || (y.Lo < 0 && y.Hi > 0) {
		return Interval{}, fmt.Errorf("symbolic: modulo divisor range %s may be zero", y)
	}
	if y.IsPoint() {
		d := y.Lo
		ad := d
		if ad < 0 {
			ad = -ad
		}
		// Every member congruent mod d: the result is a single residue.
		if xs := strideOf(x); (xs == 0 || xs%ad == 0) && ad != 0 {
			r := x.Lo - floorDiv(x.Lo, d)*d
			return Point(r), nil
		}
		// Whole interval inside one divisor window: exact sub-range.
		if floorDiv(x.Lo, d) == floorDiv(x.Hi, d) {
			lo := x.Lo - floorDiv(x.Lo, d)*d
			hi := x.Hi - floorDiv(x.Hi, d)*d
			if lo > hi {
				lo, hi = hi, lo
			}
			return NewInterval(lo, hi, strideOf(x)), nil
		}
		if d > 0 {
			return NewInterval(0, d-1, 1), nil
		}
		return NewInterval(d+1, 0, 1), nil
	}
	if y.Lo > 0 {
		return NewInterval(0, y.Hi-1, 1), nil
	}
	return NewInterval(y.Lo+1, 0, 1), nil
}

func extremeIv(args []Interval, isMin bool) Interval {
	out := args[0]
	s := strideOf(args[0])
	for _, a := range args[1:] {
		s = combStride(s, strideOf(a))
		if isMin {
			if a.Lo < out.Lo {
				out.Lo = a.Lo
			}
			if a.Hi < out.Hi {
				out.Hi = a.Hi
			}
		} else {
			if a.Lo > out.Lo {
				out.Lo = a.Lo
			}
			if a.Hi > out.Hi {
				out.Hi = a.Hi
			}
		}
	}
	if s == 0 {
		s = 1
	}
	// The merged stride is only sound when every argument's anchor is
	// congruent to the result anchor; otherwise degrade to dense.
	for _, a := range args {
		if (a.Lo-out.Lo)%s != 0 {
			s = 1
			break
		}
	}
	return NewInterval(out.Lo, out.Hi, s)
}

// IntervalOf bounds e over the given per-symbol intervals, returning a
// sound strided interval: for every environment that binds each free
// symbol to a member of its interval, e evaluates to a member of the
// result. It errors when a free symbol has no interval or a division's
// divisor range may include zero — the "unprovable" verdicts of the
// static plan verifier.
func IntervalOf(e Expr, env map[string]Interval) (Interval, error) {
	switch v := e.(type) {
	case Const:
		return Point(v.V), nil
	case Sym:
		iv, ok := env[v.Name]
		if !ok {
			return Interval{}, fmt.Errorf("symbolic: no interval for symbol %q", v.Name)
		}
		if iv.IsEmpty() {
			return Interval{}, fmt.Errorf("symbolic: empty interval for symbol %q", v.Name)
		}
		return iv, nil
	case *add:
		out := Point(v.c)
		for _, t := range v.terms {
			ti, err := IntervalOf(t, env)
			if err != nil {
				return Interval{}, err
			}
			out = addIv(out, ti)
		}
		return out, nil
	case *mul:
		out := Point(v.c)
		for _, f := range v.factors {
			fi, err := IntervalOf(f, env)
			if err != nil {
				return Interval{}, err
			}
			out = mulIv(out, fi)
		}
		return out, nil
	case *div:
		xi, err := IntervalOf(v.x, env)
		if err != nil {
			return Interval{}, err
		}
		yi, err := IntervalOf(v.y, env)
		if err != nil {
			return Interval{}, err
		}
		return divIv(xi, yi)
	case *mod:
		xi, err := IntervalOf(v.x, env)
		if err != nil {
			return Interval{}, err
		}
		yi, err := IntervalOf(v.y, env)
		if err != nil {
			return Interval{}, err
		}
		return modIv(xi, yi)
	case *minE:
		return extremeOf(v.args, env, true)
	case *maxE:
		return extremeOf(v.args, env, false)
	default:
		return Interval{}, fmt.Errorf("symbolic: cannot bound %T", e)
	}
}

func extremeOf(args []Expr, env map[string]Interval, isMin bool) (Interval, error) {
	ivs := make([]Interval, len(args))
	for i, a := range args {
		iv, err := IntervalOf(a, env)
		if err != nil {
			return Interval{}, err
		}
		ivs[i] = iv
	}
	return extremeIv(ivs, isMin), nil
}
