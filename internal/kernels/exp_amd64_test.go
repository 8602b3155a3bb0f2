package kernels

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// archExpModel is math.Exp's amd64 assembly (archExp) for an argument in
// [−708, 709], written in Go: fused selects its FMA branch, where each
// multiply-add rounds once, over its SSE2 branch, where the product and
// the sum round separately.
func archExpModel(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	mad := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	k := math.RoundToEven(x * log2e)
	r := mad(-k, ln2u, x)
	r = mad(-k, ln2l, r)
	r *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1} {
		p = mad(r, p, c)
	}
	r *= p
	for i := 0; i < 3; i++ {
		r *= r + 2
	}
	r = mad(r, r+2, 1)
	return r * math.Float64frombits(uint64(int64(k)+0x3FF)<<52)
}

// The self-check's table tells math.Exp's two amd64 branches apart, and
// vecExp is on exactly when the CPU has AVX2 and FMA and math.Exp takes
// the FMA branch the vector body mirrors — so under GODEBUG=cpu.fma=off
// (or cpu.avx=off) the vector body is left off; exp512 is on exactly
// when vecExp is and the CPU has AVX-512F, so the eight-lane core agreed
// with math.Exp on the table too. Where they run, both widths (expAVX,
// and expAVX512 when the CPU probe reports AVX-512F) are the FMA branch
// bit for bit on the table and on random arguments over their whole
// range, and each stops at the first group of its width holding an
// argument outside [−708, 709] or a NaN. The log names the widths run.
func TestExpSelfCheck(t *testing.T) {
	table := expCheckInputs()
	if len(table)%4 != 0 {
		t.Fatalf("self-check table has %d inputs, not a multiple of four", len(table))
	}
	differ, mathFused, mathUnfused := 0, true, true
	for _, x := range table {
		fused, unfused, got := archExpModel(x, true), archExpModel(x, false), math.Exp(x)
		if fused != unfused {
			differ++
		}
		mathFused = mathFused && math.Float64bits(got) == math.Float64bits(fused)
		mathUnfused = mathUnfused && math.Float64bits(got) == math.Float64bits(unfused)
	}
	if x := table[52]; archExpModel(x, true) == archExpModel(x, false) {
		t.Errorf("exp(%v): the two branches agree", x)
	}
	if differ < len(table)/20 {
		t.Errorf("the branches differ on %d of %d self-check inputs", differ, len(table))
	}
	if !mathFused && !mathUnfused {
		t.Fatalf("math.Exp matches neither branch of the model on the self-check table")
	}
	t.Logf("branches differ on %d of %d inputs; math.Exp takes the FMA branch: %v", differ, len(table), mathFused)
	if want := hasAVX2 && hasFMA && mathFused; vecExpSelected != want {
		t.Fatalf("vecExp selected %v, want %v (avx2 %v, fma %v, math.Exp fused %v)",
			vecExpSelected, want, hasAVX2, hasFMA, mathFused)
	}
	if want := vecExpSelected && hasAVX512; exp512Selected != want {
		t.Fatalf("exp512 selected %v, want %v (vecExp %v, avx512 %v): the eight-lane core disagrees with math.Exp on the table",
			exp512Selected, want, vecExpSelected, hasAVX512)
	}
	if !hasAVX2 || !hasFMA {
		t.Skip("the CPU probe reports no AVX2+FMA: the vector body cannot run")
	}

	rng := tensor.NewRNG(51)
	x := append([]float64{-708, 709, -0.0, 0}, table...)
	for i := 0; i < 100000; i++ {
		x = append(x, -708+1417*float64(rng.Uint64()>>11)/(1<<53))
	}
	bodies := []struct {
		name  string
		width int
		body  func(dst, x []float64) int
	}{{"expAVX", 4, expAVX}, {"expAVX512", 8, expAVX512}}
	var ran []string
	for _, b := range bodies {
		if b.width == 8 && !hasAVX512 {
			t.Logf("%s skipped: the CPU probe reports no AVX-512", b.name)
			continue
		}
		ran = append(ran, b.name)
		x := x[:len(x)/b.width*b.width]
		got := make([]float64, len(x))
		if n := b.body(got, x); n != len(x) {
			t.Fatalf("%s stopped at %d of %d in-range arguments", b.name, n, len(x))
		}
		for i, v := range x {
			if want := archExpModel(v, true); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s(%v) = %v, FMA branch %v", b.name, v, got[i], want)
			}
		}
		for _, bad := range []float64{-708.0000000000001, 709.0000000000001, -1e9, 1e9, math.Inf(-1), math.Inf(1), math.NaN()} {
			for at := 0; at < 24; at++ {
				x := make([]float64, 24)
				x[at] = bad
				if n, want := b.body(make([]float64, 24), x), at/b.width*b.width; n != want {
					t.Fatalf("%s with %v at %d stopped at %d, want %d", b.name, bad, at, n, want)
				}
			}
		}
	}
	t.Logf("exp bodies checked: %v", ran)
}

// erfModel is math.Erf's pure-Go definition ($GOROOT/src/math/erf.go)
// written out with each of its multiply-adds through mad: fused rounds
// it once, as a compiler that emits FMA for erf.go's x*y+z would, and
// unfused rounds the product and then the sum, as the Go compiler does
// at GOAMD64 v1 and v2. Its exps are math.Exp, as erf.go's are.
func erfModel(x float64, fused bool) float64 {
	const (
		erx  = 8.45062911510467529297e-01
		efx  = 1.28379167095512586316e-01
		efx8 = 1.02703333676410069053e+00
	)
	mad := func(a, b, c float64) float64 {
		if fused {
			return math.FMA(a, b, c)
		}
		return float64(a*b) + c
	}
	// horner(s, c[n], …, c[0]) is c[0] + s·(c[1] + s·(… + s·c[n])).
	horner := func(s float64, c ...float64) float64 {
		t := c[0]
		for _, ci := range c[1:] {
			t = mad(s, t, ci)
		}
		return t
	}
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 0):
		return math.Copysign(1, x)
	}
	sign := x < 0
	if sign {
		x = -x
	}
	var r float64
	switch {
	case x < 0x1p-28 && x < 2.848094538889218e-306:
		r = 0.125 * mad(8.0, x, efx8*x)
	case x < 0x1p-28:
		r = mad(efx, x, x)
	case x < 0.84375:
		z := x * x
		p := horner(z, -2.37630166566501626084e-05, -5.77027029648944159157e-03, -2.84817495755985104766e-02,
			-3.25042107247001499370e-01, 1.28379167095512558561e-01)
		q := horner(z, -3.96022827877536812320e-06, 1.32494738004321644526e-04, 5.08130628187576562776e-03,
			6.50222499887672944485e-02, 3.97917223959155352819e-01, 1)
		r = mad(x, p/q, x)
	case x < 1.25:
		s := x - 1
		p := horner(s, -2.16637559486879084300e-03, 3.54783043256182359371e-02, -1.10894694282396677476e-01,
			3.18346619901161753674e-01, -3.72207876035701323847e-01, 4.14856118683748331666e-01, -2.36211856075265944077e-03)
		q := horner(s, 1.19844998467991074170e-02, 1.36370839120290507362e-02, 1.26171219808761642112e-01,
			7.18286544141962662868e-02, 5.40397917702171048937e-01, 1.06420880400844228286e-01, 1)
		if sign {
			return -erx - p/q
		}
		return erx + p/q
	case x >= 6:
		r = 1
	default:
		s := 1 / (x * x)
		var R, S float64
		if x < 1/0.35 {
			R = horner(s, -9.81432934416914548592e+00, -8.12874355063065934246e+01, -1.84605092906711035994e+02,
				-1.62396669462573470355e+02, -6.23753324503260060396e+01, -1.05586262253232909814e+01,
				-6.93858572707181764372e-01, -9.86494403484714822705e-03)
			S = horner(s, -6.04244152148580987438e-02, 6.57024977031928170135e+00, 1.08635005541779435134e+02,
				4.29008140027567833386e+02, 6.45387271733267880336e+02, 4.34565877475229228821e+02,
				1.37657754143519042600e+02, 1.96512716674392571292e+01, 1)
		} else {
			R = horner(s, -4.83519191608651397019e+02, -1.02509513161107724954e+03, -6.37566443368389627722e+02,
				-1.60636384855821916062e+02, -1.77579549177547519889e+01, -7.99283237680523006574e-01,
				-9.86494292470009928597e-03)
			S = horner(s, -2.24409524465858183362e+01, 4.74528541206955367215e+02, 2.55305040643316442583e+03,
				3.19985821950859553908e+03, 1.53672958608443695994e+03, 3.25792512996573918826e+02,
				3.03380607434824582924e+01, 1)
		}
		z := math.Float64frombits(math.Float64bits(x) & 0xffffffff00000000)
		e := math.Exp(mad(-z, z, -0.5625)) * math.Exp(mad(z-x, z+x, R/S))
		if sign {
			return e/x - 1
		}
		return 1 - e/x
	}
	if sign {
		return -r
	}
	return r
}

// The Gelu self-check's table holds inputs where a fused multiply-add
// changes math.Erf in each of erf.go's polynomial intervals below
// 1/0.35, so a math.Erf the compiler built with FMAs turns the vector
// erf off (above it erf is within an ulp of 1, where the two builds
// agree on every sampled input); and
// vecErf is on exactly when vecExp is and math.Erf is the unfused
// definition on the table. Where it runs, the vector erf is that
// definition bit for bit over its boundaries and random arguments across
// (−7, 7), and it stops at the first group of four holding a NaN.
func TestErfSelfCheck(t *testing.T) {
	table := erfCheckInputs()
	if len(table)%4 != 0 {
		t.Fatalf("self-check table has %d inputs, not a multiple of four", len(table))
	}
	bounds := []float64{0x1p-28, 0.84375, 1.25, 1 / 0.35, 6}
	differ := make([]int, len(bounds)-1)
	mathFused, mathUnfused := true, true
	for _, x := range table {
		fused, unfused, got := erfModel(x, true), erfModel(x, false), math.Erf(x)
		for i := range differ {
			if a := math.Abs(x); a >= bounds[i] && a < bounds[i+1] && fused != unfused {
				differ[i]++
			}
		}
		mathFused = mathFused && math.Float64bits(got) == math.Float64bits(fused)
		mathUnfused = mathUnfused && math.Float64bits(got) == math.Float64bits(unfused)
	}
	for i, n := range differ[:3] {
		if n < 8 {
			t.Errorf("%d inputs in ±[%v, %v) tell a fused math.Erf from an unfused one, want 8", n, bounds[i], bounds[i+1])
		}
	}
	if !mathFused && !mathUnfused {
		t.Fatalf("math.Erf matches neither model of erf.go on the self-check table")
	}
	t.Logf("fused and unfused erf differ on %v inputs per interval; math.Erf is unfused: %v", differ, mathUnfused)
	if want := vecExpSelected && mathUnfused; vecErfSelected != want {
		t.Fatalf("vecErf selected %v, want %v (vecExp %v, math.Erf unfused %v)", vecErfSelected, want, vecExpSelected, mathUnfused)
	}
	if !vecExpSelected {
		t.Skip("the vector exp is off, so the vector erf cannot run")
	}

	rng := tensor.NewRNG(56)
	x := append([]float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}, table...)
	for i := 0; i < 100000; i++ {
		x = append(x, -7+14*float64(rng.Uint64()>>11)/(1<<53))
	}
	got := make([]float64, len(x))
	if n := erfAVX(got, x); n != len(x) {
		t.Fatalf("erfAVX stopped at %d of %d ordered arguments", n, len(x))
	}
	for i, v := range x {
		if want := erfModel(v, false); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("erfAVX(%v) = %v, erf.go unfused %v", v, got[i], want)
		}
	}
	for at := 0; at < 16; at++ {
		x := make([]float64, 16)
		x[at] = math.NaN()
		if n := erfAVX(make([]float64, 16), x); n != at&^3 {
			t.Fatalf("erfAVX with NaN at %d stopped at %d, want %d", at, n, at&^3)
		}
	}
}
