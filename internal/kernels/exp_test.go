package kernels

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// The scalar definitions of the exp rows, written out here so that
// TestExpBodiesMatchMath judges the kernels and their vector bodies
// against something other than their own code.

func expRowDef(dst, row []float32, maxV float32) float64 {
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	return sum
}

func sigmoidDef(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

func siluDef(v float32) float32 { return v * sigmoidDef(v) }

// softmaxDef is the Softmax (or LogSoftmax) of every last-axis row of x.
func softmaxDef(x *tensor.Tensor, logMode bool) []float32 {
	out := make([]float32, len(x.F))
	inner := int(x.Shape[x.Rank()-1])
	for lo := 0; lo < len(x.F); lo += inner {
		row, dst := x.F[lo:lo+inner], out[lo:lo+inner]
		maxV := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := expRowDef(dst, row, maxV)
		if logMode {
			ls := float32(math.Log(sum))
			for i, v := range row {
				dst[i] = v - maxV - ls
			}
			continue
		}
		inv := float32(1 / sum)
		for i := range dst {
			dst[i] *= inv
		}
	}
	return out
}

// ExpOpDef is the scalar definition of a Softmax, LogSoftmax, Sigmoid or
// Silu call on x, the last axis for the first two. (Exported for the
// kernels_test package.)
func ExpOpDef(op string, x *tensor.Tensor) []float32 {
	switch op {
	case "Softmax", "LogSoftmax":
		return softmaxDef(x, op == "LogSoftmax")
	}
	def := sigmoidDef
	if op == "Silu" {
		def = siluDef
	}
	out := make([]float32, len(x.F))
	for i, v := range x.F {
		out[i] = def(v)
	}
	return out
}

// SetVecExp switches the vector exp bodies on or off and returns a func
// that restores the previous setting. Switching on where vecExp's
// selection said no leaves them off. (Exported for the kernels_test
// package.)
func SetVecExp(on bool) (restore func()) {
	prev := vecExp
	vecExp = on && vecExpSelected
	return func() { vecExp = prev }
}

// vecExpSelected is vecExp as package init chose it.
var vecExpSelected = vecExp

// expModes are the settings of vecExp a test runs under: the selected
// one and, when that is the vector path, the scalar one too.
func expModes() []bool {
	if vecExpSelected {
		return []bool{true, false}
	}
	return []bool{false}
}

// sameF32 reports whether got is want bit for bit, and if not, the
// first index where they differ.
func sameF32(got, want []float32) (int, bool) {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, false
		}
	}
	return 0, len(got) == len(want)
}

// sweepFloats returns every 997th float32 bit pattern — about 4.3
// million values, NaNs and denormals among them, with exps that
// overflow, underflow and land on denormals — then ±0, ±Inf and the
// float32 values either side of the vector bodies' limits −708 and 709
// (and of −709 and 708, Sigmoid's and Silu's limits on −v).
func sweepFloats() []float32 {
	xs := make([]float32, 0, 1<<32/997+16)
	for b := uint64(0); b < 1<<32; b += 997 {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	xs = append(xs, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)))
	for _, lim := range []float32{-708, 709, -709, 708} {
		xs = append(xs, math.Nextafter32(lim, -1000), lim, math.Nextafter32(lim, 1000))
	}
	return xs
}

// expRowVals salts a row for expRow: mostly normal values at a spread of
// scales, with −Inf, NaN and −1e9 masks and values past exp's range.
func expRowVals(rng *tensor.RNG) float32 {
	switch rng.Intn(12) {
	case 0:
		return float32(math.Inf(-1))
	case 1:
		return float32(math.NaN())
	case 2:
		return -1e9
	case 3:
		return rng.NormFloat32() * 800
	}
	return rng.NormFloat32() * []float32{0.1, 1, 10, 100}[rng.Intn(4)]
}

// TestExpBodiesMatchMath holds the exp rows — expRow, sigmoidRow and
// siluRow — and the Softmax, LogSoftmax, Sigmoid and Silu kernels to
// the scalar definitions above bit for bit, with the vector bodies on
// (where vecExp selected them) and forced off:
//
//   - every 997th float32 bit pattern, in rows of every length mod 4,
//     through all three rows (expRow with maxV = 0, so that each exp
//     argument is the pattern itself);
//   - random rows of length 0–9, 16, 33 and 384 salted with −Inf, NaN,
//     −1e9 and out-of-range values, against their own max, +Inf, 0 and
//     a random maxV;
//   - the kernels on salted [rows, L] tensors at thread budgets 1 and 4,
//     into heap and NaN-filled outputs.
func TestExpBodiesMatchMath(t *testing.T) {
	sweep := sweepFloats()
	for _, on := range expModes() {
		restore := SetVecExp(on)
		name := map[bool]string{true: "vector", false: "scalar"}[on]
		t.Run(name+"/sweep", func(t *testing.T) {
			got, want := make([]float32, 4099), make([]float32, 4099)
			for lo, k := 0, 0; lo < len(sweep); k++ {
				hi := min(lo+4096+k%4, len(sweep))
				row := sweep[lo:hi]
				gs, ws := expRow(got, row, 0), expRowDef(want, row, 0)
				if i, ok := sameF32(got[:len(row)], want[:len(row)]); !ok {
					t.Fatalf("expRow(%#x) = %#x, want %#x", math.Float32bits(row[i]),
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
				if math.Float64bits(gs) != math.Float64bits(ws) {
					t.Fatalf("expRow sum over sweep[%d:%d] = %v, want %v", lo, hi, gs, ws)
				}
				for _, body := range []struct {
					name string
					row  func(o, x []float32)
					def  func(float32) float32
				}{{"sigmoidRow", sigmoidRow, sigmoidDef}, {"siluRow", siluRow, siluDef}} {
					body.row(got, row)
					for i, v := range row {
						want[i] = body.def(v)
					}
					if i, ok := sameF32(got[:len(row)], want[:len(row)]); !ok {
						t.Fatalf("%s(%#x) = %#x, want %#x", body.name, math.Float32bits(row[i]),
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
				lo = hi
			}
		})
		t.Run(name+"/rows", func(t *testing.T) {
			rng := tensor.NewRNG(47)
			lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33, 384}
			for trial := 0; trial < 2000; trial++ {
				row := make([]float32, lens[trial%len(lens)])
				for i := range row {
					row[i] = expRowVals(rng)
				}
				rowMax := float32(math.Inf(-1))
				for _, v := range row {
					if v > rowMax {
						rowMax = v
					}
				}
				for _, maxV := range []float32{rowMax, float32(math.Inf(1)), 0, rng.NormFloat32() * 50} {
					got, want := nans(int64(len(row))), make([]float32, len(row))
					gs, ws := expRow(got, row, maxV), expRowDef(want, row, maxV)
					if i, ok := sameF32(got, want); !ok {
						t.Fatalf("expRow(%v, maxV %v)[%d] = %v, want %v", row, maxV, i, got[i], want[i])
					}
					if math.Float64bits(gs) != math.Float64bits(ws) {
						t.Fatalf("expRow(%v, maxV %v) sum = %v, want %v", row, maxV, gs, ws)
					}
				}
			}
		})
		t.Run(name+"/kernels", func(t *testing.T) {
			rng := tensor.NewRNG(48)
			for _, op := range []string{"Softmax", "LogSoftmax", "Sigmoid", "Silu"} {
				for _, l := range []int64{1, 3, 4, 7, 32, 129, 384} {
					x := tensor.New(tensor.Float32, 37, l)
					for i := range x.F {
						x.F[i] = expRowVals(rng)
					}
					want := ExpOpDef(op, x)
					for _, threads := range []int{1, 4} {
						got := runOp(t, op, nil, threads, x)
						if i, ok := sameF32(got.F, want); !ok {
							t.Fatalf("%s [37,%d] threads %d: element %d (x %v) = %v, want %v",
								op, l, threads, i, x.F[i], got.F[i], want[i])
						}
					}
				}
			}
		})
		restore()
	}
}

// BenchmarkSoftmaxRows sizes the Softmax kernel on attention-score
// shapes, 64 rows of L, with the vector exp body and with the scalar
// definition.
func BenchmarkSoftmaxRows(b *testing.B) {
	rng := tensor.NewRNG(49)
	node := &graph.Node{Name: "b", OpType: "Softmax"}
	for _, l := range []int64{32, 128, 384} {
		x := tensor.RandomFloats(rng, 4, 64, l)
		for _, on := range []bool{false, true} {
			b.Run(fmt.Sprintf("L=%d/%s", l, map[bool]string{true: "vector", false: "scalar"}[on]), func(b *testing.B) {
				defer SetVecExp(on)()
				benchKernel(b, node, x)
			})
		}
	}
}

// BenchmarkSigmoidSilu sizes Sigmoid and Silu on 64 Ki elements with the
// vector exp body and with the scalar definition.
func BenchmarkSigmoidSilu(b *testing.B) {
	x := tensor.RandomFloats(tensor.NewRNG(50), 4, 64, 1024)
	for _, op := range []string{"Sigmoid", "Silu"} {
		node := &graph.Node{Name: "b", OpType: op}
		for _, on := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/%s", op, map[bool]string{true: "vector", false: "scalar"}[on]), func(b *testing.B) {
				defer SetVecExp(on)()
				benchKernel(b, node, x)
			})
		}
	}
}

// benchKernel runs node on x at a budget of one thread; SetBytes counts
// the input read and the output written.
func benchKernel(b *testing.B, node *graph.Node, x *tensor.Tensor) {
	b.SetBytes(8 * x.Len())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(node, []*tensor.Tensor{x}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
