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
// (or cpu.avx=off) the vector body is left off. Where it runs, it is
// the FMA branch bit for bit on the table and on random arguments over
// its whole range, and it stops at the first group of four holding an
// argument outside [−708, 709] or a NaN.
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
	if !hasAVX2 || !hasFMA {
		t.Skip("the CPU probe reports no AVX2+FMA: the vector body cannot run")
	}

	rng := tensor.NewRNG(51)
	x := append([]float64{-708, 709, -0.0, 0}, table...)
	for i := 0; i < 100000; i++ {
		x = append(x, -708+1417*float64(rng.Uint64()>>11)/(1<<53))
	}
	got := make([]float64, len(x))
	if n := expAVX(got, x); n != len(x) {
		t.Fatalf("expAVX stopped at %d of %d in-range arguments", n, len(x))
	}
	for i, v := range x {
		if want := archExpModel(v, true); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("expAVX(%v) = %v, FMA branch %v", v, got[i], want)
		}
	}
	for _, bad := range []float64{-708.0000000000001, 709.0000000000001, -1e9, 1e9, math.Inf(-1), math.Inf(1), math.NaN()} {
		for at := 0; at < 16; at++ {
			x := make([]float64, 16)
			x[at] = bad
			if n := expAVX(make([]float64, 16), x); n != at&^3 {
				t.Fatalf("expAVX with %v at %d stopped at %d, want %d", bad, at, n, at&^3)
			}
		}
	}
}
