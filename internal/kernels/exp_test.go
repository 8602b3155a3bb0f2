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

// maxRowDef is Softmax's max pass: the largest value of row, the first
// of equal ones, NaN never taken, from −Inf.
func maxRowDef(row []float32) float32 {
	maxV := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	return maxV
}

// softmaxDef is the Softmax (or LogSoftmax) of every last-axis row of x.
func softmaxDef(x *tensor.Tensor, logMode bool) []float32 {
	out := make([]float32, len(x.F))
	inner := int(x.Shape[x.Rank()-1])
	for lo := 0; lo < len(x.F); lo += inner {
		row, dst := x.F[lo:lo+inner], out[lo:lo+inner]
		maxV := maxRowDef(row)
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

func geluDef(v float32) float32 {
	return float32(0.5 * float64(v) * (1 + math.Erf(float64(v)/math.Sqrt2)))
}

// VecOpDef is the scalar definition of a call of n on x that the vector
// bodies serve: Softmax or LogSoftmax over the last axis, Sigmoid, Silu,
// Gelu, or MaxPool (the pooling loop refPool). (Exported for the
// kernels_test package.)
func VecOpDef(n *graph.Node, x *tensor.Tensor) []float32 {
	switch n.OpType {
	case "Softmax", "LogSoftmax":
		return softmaxDef(x, n.OpType == "LogSoftmax")
	case "MaxPool":
		return refPool(x, false, n.AttrInts("kernel_shape", nil), n.AttrInts("strides", []int64{1, 1}),
			n.AttrInts("pads", []int64{0, 0, 0, 0})).F
	}
	def := map[string]func(float32) float32{"Sigmoid": sigmoidDef, "Silu": siluDef, "Gelu": geluDef}[n.OpType]
	out := make([]float32, len(x.F))
	for i, v := range x.F {
		out[i] = def(v)
	}
	return out
}

// SetVecBodies switches the vector bodies — exp and its row sums, erf
// and max — on or off and returns a func that restores the previous
// settings. Switching on where package init did not select a body
// leaves that one off. (Exported for the kernels_test package.)
func SetVecBodies(on bool) (restore func()) {
	prevExp, prevErf, prevMax := vecExp, vecErf, vecMax
	vecExp, vecErf, vecMax = on && vecExpSelected, on && vecErfSelected, on && vecMaxSelected
	return func() { vecExp, vecErf, vecMax = prevExp, prevErf, prevMax }
}

// The vector bodies' settings as package init chose them.
var vecExpSelected, vecErfSelected, vecMaxSelected = vecExp, vecErf, vecMax

// SetExp512 switches the eight-lane exp bodies on or off and returns a
// func that restores the previous setting. Switching on where package
// init did not select them leaves them off; they run only while the
// vector exp is on. (Exported for the kernels_test package.)
func SetExp512(on bool) (restore func()) {
	prev := exp512
	exp512 = on && exp512Selected
	return func() { exp512 = prev }
}

// exp512Selected is exp512 as package init chose it.
var exp512Selected = exp512

// ExpWidth is a setting the vector bodies run at in a test: "width=8"
// (the eight-lane exp bodies over the four-lane ones), "width=4" (the
// four-lane bodies alone) or "scalar" (every vector body off).
// (Exported for the kernels_test package.)
type ExpWidth struct {
	Name      string
	vec, wide bool
}

func (w ExpWidth) String() string { return w.Name }

// Set switches the bodies to w and returns a func that restores the
// previous settings.
func (w ExpWidth) Set() (restore func()) {
	restoreVec, restoreWide := SetVecBodies(w.vec), SetExp512(w.wide)
	return func() { restoreWide(); restoreVec() }
}

// ExpWidths are the settings package init allows, widest first: width=8
// when it selected the eight-lane bodies, width=4 when it selected any
// vector body, and scalar.
func ExpWidths() []ExpWidth {
	var ws []ExpWidth
	if exp512Selected {
		ws = append(ws, ExpWidth{"width=8", true, true})
	}
	if vecExpSelected || vecErfSelected || vecMaxSelected {
		ws = append(ws, ExpWidth{"width=4", true, false})
	}
	return append(ws, ExpWidth{"scalar", false, false})
}

// expModes are the settings SetVecBodies takes in a test: on and off
// when init selected any vector body, only off otherwise.
func expModes() []bool {
	if vecExpSelected || vecErfSelected || vecMaxSelected {
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
// overflow, underflow and land on denormals — then ±0, ±Inf, the
// float32 values either side of the vector bodies' limits −708 and 709
// (and of −709 and 708, Sigmoid's and Silu's limits on −v), and the
// five float32 values around √2 times each of erf.go's interval
// boundaries 2⁻²⁸, 0.84375, 1.25, 1/0.35 and 6, both signs, so that
// Gelu's v/√2 falls within an ulp or two of each, on either side.
func sweepFloats() []float32 {
	xs := make([]float32, 0, 1<<32/997+16)
	for b := uint64(0); b < 1<<32; b += 997 {
		xs = append(xs, math.Float32frombits(uint32(b)))
	}
	xs = append(xs, 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)))
	for _, lim := range []float32{-708, 709, -709, 708} {
		xs = append(xs, math.Nextafter32(lim, -1000), lim, math.Nextafter32(lim, 1000))
	}
	for _, b := range []float64{1.0 / (1 << 28), 0.84375, 1.25, 1 / 0.35, 6} {
		for _, sign := range []float32{1, -1} {
			v := sign * float32(b*math.Sqrt2)
			lo, hi := math.Nextafter32(v, -10), math.Nextafter32(v, 10)
			xs = append(xs, math.Nextafter32(lo, -10), lo, v, hi, math.Nextafter32(hi, 10))
		}
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

// TestExpBodiesMatchMath holds the vector rows — expRow, expRows,
// maxRow, sigmoidRow, siluRow and geluRow — and the Softmax,
// LogSoftmax, Sigmoid, Silu and Gelu kernels to the scalar definitions
// above bit for bit, at every width package init allows (ExpWidths: the
// eight-lane bodies, the four-lane ones, and the vector bodies forced
// off), and logs the widths it ran:
//
//   - every 997th float32 bit pattern and the values around Gelu's erf
//     boundaries, in rows of every length mod 4, through all four rows
//     (expRow with maxV = 0, so that each exp argument is the pattern
//     itself);
//   - random rows of length 0–9, 16, 33 and 384 salted with −Inf, NaN,
//     −1e9 and out-of-range values, against their own max, +Inf, 0 and
//     a random maxV;
//   - Softmax's max pass on rows of length 0–40 and 384: salted, with
//     ±0 maxima, a NaN at every position, all NaN and all −Inf;
//   - the interleaved exp-and-sum on 1–9 rows, clean and with one row
//     holding an argument outside [−708, 709] mid-row;
//   - four rows, and Sigmoid and Silu rows, with an argument outside
//     [−708, 709] or a NaN at each of the upper four columns of a group
//     of eight only, so that the four-lane bodies take the group's lower
//     half and the scalar definitions its upper half, and the rows
//     resume eight lanes wide after it;
//   - the kernels on salted [rows, L] tensors, 1–9 and 37 rows, at
//     thread budgets 1 and 4, into heap and NaN-filled outputs.
func TestExpBodiesMatchMath(t *testing.T) {
	sweep := sweepFloats()
	widths := ExpWidths()
	for _, w := range widths {
		restore := w.Set()
		name := w.Name
		t.Run(name+"/sweep", func(t *testing.T) {
			got, want := make([]float32, 4099), make([]float32, 4099)
			for lo, k := 0, 0; lo < len(sweep); k++ {
				hi := min(lo+4096+k%4, len(sweep))
				row := sweep[lo:hi]
				gs, ws := expRow(got, row, 0, 0), expRowDef(want, row, 0)
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
				}{{"sigmoidRow", sigmoidRow, sigmoidDef}, {"siluRow", siluRow, siluDef}, {"geluRow", geluRow, geluDef}} {
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
					gs, ws := expRow(got, row, maxV, 0), expRowDef(want, row, maxV)
					if i, ok := sameF32(got, want); !ok {
						t.Fatalf("expRow(%v, maxV %v)[%d] = %v, want %v", row, maxV, i, got[i], want[i])
					}
					if math.Float64bits(gs) != math.Float64bits(ws) {
						t.Fatalf("expRow(%v, maxV %v) sum = %v, want %v", row, maxV, gs, ws)
					}
				}
			}
		})
		t.Run(name+"/maxpass", func(t *testing.T) {
			rng := tensor.NewRNG(52)
			nan, inf := float32(math.NaN()), float32(math.Inf(1))
			lens := []int{384}
			for l := 0; l <= 40; l++ {
				lens = append(lens, l)
			}
			check := func(row []float32) {
				t.Helper()
				if got, want := maxRow(row), maxRowDef(row); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("maxRow(%v) = %v (%#x), want %v (%#x)", row, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
			for _, l := range lens {
				row := make([]float32, l)
				for kind := 0; kind < 6; kind++ {
					for i := range row {
						switch v := rng.NormFloat32(); kind {
						case 0:
							row[i] = expRowVals(rng)
						case 1, 2: // negatives and zeros of both signs: a ±0 maximum
							row[i] = -float32(math.Abs(float64(v)))
							if rng.Intn(3) == 0 {
								row[i] = float32(math.Copysign(0, float64(v)))
							}
						case 3:
							row[i] = nan
						case 4:
							row[i] = -inf
						case 5:
							row[i] = []float32{nan, -inf}[rng.Intn(2)]
						}
					}
					if kind == 2 && l > 0 { // the one zero last, after a tie-free prefix
						for i := range row {
							row[i] = -1 - float32(i)
						}
						row[rng.Intn(l)] = float32(math.Copysign(0, -1))
					}
					check(row)
					for at := range row {
						keep := row[at]
						row[at] = nan
						check(row)
						row[at] = keep
					}
				}
			}
		})
		t.Run(name+"/interleaved", func(t *testing.T) {
			rng := tensor.NewRNG(53)
			for rows := int64(1); rows <= 9; rows++ {
				for _, l := range []int64{1, 3, 4, 5, 8, 13, 64, 243} {
					for _, leave := range []bool{false, true} {
						x := tensor.RandomFloats(rng, 4, rows, l).F
						if leave {
							x[rows/2*l+l/2] = []float32{-1e9, 800, float32(math.NaN())}[rng.Intn(3)]
						}
						got, want := nans(rows*l), make([]float32, rows*l)
						for o := int64(0); o < rows; o += 4 {
							k := min(4, rows-o)
							var maxV [4]float32
							var sum [4]float64
							for r := int64(0); r < k; r++ {
								maxV[r] = maxRowDef(x[(o+r)*l : (o+r+1)*l])
							}
							maxV[0] = []float32{maxV[0], 0, -700}[rng.Intn(3)]
							expRows(got[o*l:(o+k)*l], x[o*l:(o+k)*l], l, &maxV, &sum)
							for r := o; r < o+k; r++ {
								ws := expRowDef(want[r*l:(r+1)*l], x[r*l:(r+1)*l], maxV[r-o])
								if math.Float64bits(sum[r-o]) != math.Float64bits(ws) {
									t.Fatalf("expRows %d×%d leave %v: row %d sum %v, want %v", rows, l, leave, r, sum[r-o], ws)
								}
							}
						}
						if i, ok := sameF32(got, want); !ok {
							t.Fatalf("expRows %d×%d leave %v: element %d (x %v) = %v, want %v", rows, l, leave, i, x[i], got[i], want[i])
						}
					}
				}
			}
		})
		t.Run(name+"/upper", func(t *testing.T) {
			rng := tensor.NewRNG(57)
			for _, l := range []int64{8, 12, 16, 20, 27, 64} {
				for at := int64(4); at < l; at++ {
					if at%8 < 4 {
						continue
					}
					for _, bad := range []float32{-1e9, 800, float32(math.NaN())} {
						x := tensor.RandomFloats(rng, 4, 4, l).F
						r := at % 4
						x[r*l+at] = bad
						var maxV [4]float32 // 0: each exp argument is x itself
						var sum [4]float64
						got, want := nans(4*l), make([]float32, 4*l)
						expRows(got, x, l, &maxV, &sum)
						for q := int64(0); q < 4; q++ {
							ws := expRowDef(want[q*l:(q+1)*l], x[q*l:(q+1)*l], maxV[q])
							if math.Float64bits(sum[q]) != math.Float64bits(ws) {
								t.Fatalf("expRows 4×%d, %v at row %d column %d: row %d sum %v, want %v", l, bad, r, at, q, sum[q], ws)
							}
						}
						if i, ok := sameF32(got, want); !ok {
							t.Fatalf("expRows 4×%d, %v at row %d column %d: element %d = %v, want %v", l, bad, r, at, i, got[i], want[i])
						}
						row := x[:l]
						row[at] = -bad // Sigmoid's and Silu's exp argument is −v
						for _, body := range []struct {
							name string
							row  func(o, x []float32)
							def  func(float32) float32
						}{{"sigmoidRow", sigmoidRow, sigmoidDef}, {"siluRow", siluRow, siluDef}} {
							got := nans(l)
							body.row(got, row)
							for i, v := range row {
								want[i] = body.def(v)
							}
							if i, ok := sameF32(got, want[:l]); !ok {
								t.Fatalf("%s of %d, %v at %d: element %d = %v, want %v", body.name, l, -bad, at, i, got[i], want[i])
							}
						}
					}
				}
			}
		})
		t.Run(name+"/kernels", func(t *testing.T) {
			rng := tensor.NewRNG(48)
			for _, op := range []string{"Softmax", "LogSoftmax", "Sigmoid", "Silu", "Gelu"} {
				for _, rows := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 37} {
					for _, l := range []int64{1, 3, 4, 7, 32, 129, 384} {
						x := tensor.New(tensor.Float32, rows, l)
						for i := range x.F {
							x.F[i] = expRowVals(rng)
						}
						want := VecOpDef(&graph.Node{OpType: op}, x)
						for _, threads := range []int{1, 4} {
							got := runOp(t, op, nil, threads, x)
							if i, ok := sameF32(got.F, want); !ok {
								t.Fatalf("%s [%d,%d] threads %d: element %d (x %v) = %v, want %v",
									op, rows, l, threads, i, x.F[i], got.F[i], want[i])
							}
						}
					}
				}
			}
		})
		restore()
	}
	t.Logf("widths run: %v", widths)
}

// BenchmarkSoftmaxRows sizes the Softmax kernel on attention-score
// shapes, 64 rows of L, at every width package init allows (scalar,
// width=4, width=8), and reports ns per element.
func BenchmarkSoftmaxRows(b *testing.B) {
	rng := tensor.NewRNG(49)
	node := &graph.Node{Name: "b", OpType: "Softmax"}
	for _, l := range []int64{64, 160, 243} {
		x := tensor.RandomFloats(rng, 4, 64, l)
		for _, w := range ExpWidths() {
			b.Run(fmt.Sprintf("L=%d/%s", l, w.Name), func(b *testing.B) {
				defer w.Set()()
				benchKernel(b, node, x)
				reportPerElement(b, x)
			})
		}
	}
}

// BenchmarkSigmoidSilu sizes Sigmoid and Silu on 64 Ki elements at every
// width package init allows, and reports ns per element.
func BenchmarkSigmoidSilu(b *testing.B) {
	x := tensor.RandomFloats(tensor.NewRNG(50), 4, 64, 1024)
	for _, op := range []string{"Sigmoid", "Silu"} {
		node := &graph.Node{Name: "b", OpType: op}
		for _, w := range ExpWidths() {
			b.Run(fmt.Sprintf("%s/%s", op, w.Name), func(b *testing.B) {
				defer w.Set()()
				benchKernel(b, node, x)
				reportPerElement(b, x)
			})
		}
	}
}

// reportPerElement reports the benchmark's time per element of x.
func reportPerElement(b *testing.B, x *tensor.Tensor) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Len()), "ns/elem")
}

// BenchmarkGelu sizes Gelu on 64 Ki elements of a unit normal — the
// spread its input has in the models' MLPs — with the vector erf body
// and with the scalar definition.
func BenchmarkGelu(b *testing.B) {
	x := tensor.RandomFloats(tensor.NewRNG(54), 1, 64, 1024)
	node := &graph.Node{Name: "b", OpType: "Gelu"}
	for _, on := range []bool{false, true} {
		b.Run(map[bool]string{true: "vector", false: "scalar"}[on], func(b *testing.B) {
			defer SetVecBodies(on)()
			benchKernel(b, node, x)
		})
	}
}

// BenchmarkMaxPool sizes MaxPool on YOLO-V6's SPPF pool, 5×5 s1 p2 over
// 64 planes of 16×16, and SkipNet's stem pool, 2×2 s2 over 16 planes of
// 112×112, with the max bodies and with the scalar folds. Output and
// scratch come from a Dest that keeps them, as a planned run's arena
// does.
func BenchmarkMaxPool(b *testing.B) {
	for _, tc := range []struct {
		name                  string
		c, hw                 int64
		kernel, strides, pads []int64
	}{
		{"5x5s1p2_64x16x16", 64, 16, []int64{5, 5}, []int64{1, 1}, []int64{2, 2, 2, 2}},
		{"2x2s2_16x112x112", 16, 112, []int64{2, 2}, []int64{2, 2}, []int64{0, 0, 0, 0}},
	} {
		x := tensor.RandomFloats(tensor.NewRNG(55), 1, 1, tc.c, tc.hw, tc.hw)
		node := mkNode("MaxPool", map[string]graph.AttrValue{"kernel_shape": graph.IntsAttr(tc.kernel...),
			"strides": graph.IntsAttr(tc.strides...), "pads": graph.IntsAttr(tc.pads...)}, 1)
		for _, on := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/%s", tc.name, map[bool]string{true: "vector", false: "scalar"}[on]), func(b *testing.B) {
				defer SetVecBodies(on)()
				ctx := &Ctx{Dest: &fixedDest{out: make([]float32, x.Len()), scratch: make([]float32, 2*x.Len())}}
				b.SetBytes(4 * x.Len())
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(node, []*tensor.Tensor{x}, ctx); err != nil {
						b.Fatal(err)
					}
				}
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
