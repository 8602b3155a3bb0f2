// Benchmarks: one testing.B target per paper table/figure (each drives
// the same experiment harness `cmd/sod2bench` runs, with a small sample
// count so `go test -bench=.` stays tractable), plus wall-clock kernel
// and ablation benchmarks for the design choices DESIGN.md calls out.
package sod2

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/frameworks"
	"repro/internal/fusion"
	"repro/internal/graph"
	"repro/internal/kernels"
	"repro/internal/memplan"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/symbolic"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// benchExperiment runs one harness experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		s := bench.NewSuite(bench.Options{Samples: 2, Seed: 7, Out: io.Discard})
		if err := s.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// Tables.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// Figures.
func BenchmarkFig5(b *testing.B)            { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)            { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)            { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)            { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)            { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)           { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkMemPlanAblation(b *testing.B) { benchExperiment(b, "memopt") }

// ---- Wall-clock kernel benchmarks -------------------------------------

// BenchmarkGemm measures the one GEMM loop nest on the (m, k, n) shapes
// the ten models issue most: im2col convs (few rows, long columns,
// 16×144×496, one panel of a 3×3 16→16 conv on a 62-wide plane, and
// 16×144×260, a panel whose width is no multiple of 32), the attention
// products QKᵀ (L×8×L) and P·V (L×L×8) at L = 196 and at the served
// L = 289 and 400, a square-ish projection and a 1×k×n classifier head.
func BenchmarkGemm(b *testing.B) {
	for _, sh := range []struct{ m, k, n int64 }{
		{16, 144, 3600}, {32, 288, 900}, {16, 27, 14400}, {16, 144, 496}, {16, 144, 260},
		{128, 32, 32}, {196, 8, 196}, {196, 196, 8}, {289, 8, 289}, {289, 289, 8},
		{400, 8, 400}, {400, 400, 8}, {1, 32, 10},
	} {
		rng := tensor.NewRNG(3)
		a := tensor.RandomFloats(rng, 1, sh.m, sh.k)
		bb := tensor.RandomFloats(rng, 1, sh.k, sh.n)
		c := make([]float32, sh.m*sh.n)
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, sh.k, sh.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kernels.Gemm(a.F, bb.F, sh.m, sh.k, sh.n, c)
			}
			b.ReportMetric(float64(2*sh.m*sh.k*sh.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkConv measures the Conv kernel end to end (unfold, GEMM, bias)
// on the models' real convolutions: the residual 3×3s at stride 1 and 2,
// the 3→c stems, SegmentAnything's 8×8 stride-8 patchify, YOLO-V6's 1×1
// neck and Conformer's depthwise 3×3 over a [L/4, 1] plane. The two
// rows at 62×62 and 248×248 are the convolutions that lead the gated
// CNNs' conv time at input size 248.
func BenchmarkConv(b *testing.B) {
	for _, cv := range []struct {
		name                  string
		cin, hw, w, cout      int64
		k, stride, pad, group int64
	}{
		{"3x3s1_16to32_56x56", 16, 56, 56, 32, 3, 1, 1, 1},
		{"3x3s2_16to32_56x56", 16, 56, 56, 32, 3, 2, 1, 1},
		{"3x3s1_16to16_62x62", 16, 62, 62, 16, 3, 1, 1, 1},
		{"stem3x3s2_3to16_248x248", 3, 248, 248, 16, 3, 2, 1, 1},
		{"stem3x3s2_3to16_224x224", 3, 224, 224, 16, 3, 2, 1, 1},
		{"stem3x3s1_3to8_128x128", 3, 128, 128, 8, 3, 1, 1, 1},
		{"patchify8x8s8_3to32_128x128", 3, 128, 128, 32, 8, 8, 0, 1},
		{"1x1_128to32_14x14", 128, 14, 14, 32, 1, 1, 0, 1},
		{"depthwise3x3_32_96x1", 32, 96, 1, 32, 3, 1, 1, 32},
	} {
		rng := tensor.NewRNG(5)
		in := []*tensor.Tensor{
			tensor.RandomFloats(rng, 1, 1, cv.cin, cv.hw, cv.w),
			tensor.RandomFloats(rng, 1, cv.cout, cv.cin/cv.group, cv.k, cv.k),
			tensor.RandomFloats(rng, 1, cv.cout),
		}
		n := &graph.Node{Name: "c", OpType: "Conv", Outputs: []string{"y"},
			Attrs: map[string]graph.AttrValue{
				"strides": graph.IntsAttr(cv.stride, cv.stride),
				"pads":    graph.IntsAttr(cv.pad, cv.pad, cv.pad, cv.pad),
				"group":   graph.IntAttr(cv.group),
			}}
		b.Run(cv.name, func(b *testing.B) {
			b.ReportAllocs()
			var out []*tensor.Tensor
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = kernels.Run(n, in, nil); err != nil {
					b.Fatal(err)
				}
			}
			flops := 2 * out[0].Len() * cv.cin / cv.group * cv.k * cv.k
			b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// ---- Compiler-stage benchmarks ----------------------------------------

// BenchmarkRDPAnalysis measures the analysis itself over every model.
func BenchmarkRDPAnalysis(b *testing.B) {
	for _, m := range models.All() {
		g := m.Build()
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rdp.Analyze(g, nil, rdp.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRDPBackwardAblation compares convergence cost with and
// without backward transfer (design-choice ablation).
func BenchmarkRDPBackwardAblation(b *testing.B) {
	g, _ := models.Get("CodeBERT")
	built := g.Build()
	for _, disabled := range []bool{false, true} {
		name := "with-backward"
		if disabled {
			name = "forward-only"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rdp.Analyze(built, nil, rdp.Options{DisableBackward: disabled}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSymbolicCanon measures the canonicalizing simplifier — the
// fusion hit-rate depends on it being cheap enough to run everywhere.
func BenchmarkSymbolicCanon(b *testing.B) {
	h := symbolic.NewSym("H")
	w := symbolic.NewSym("W")
	for i := 0; i < b.N; i++ {
		e := symbolic.Add(
			symbolic.Div(symbolic.Mul(h, w, symbolic.NewConst(4)), symbolic.NewConst(2)),
			symbolic.Mul(symbolic.NewConst(3), h),
			symbolic.Neg(h),
		)
		if _, err := e.Eval(symbolic.Env{"H": 32, "W": 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecPlanSearch compares the exhaustive subset-DP ordering
// search against the greedy heuristic on a planning-friendly graph.
func BenchmarkExecPlanSearch(b *testing.B) {
	m, _ := models.Get("CodeBERT")
	g := m.Build()
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{0, 14} {
		name := "greedy-only"
		if cap == 14 {
			name = "with-exhaustive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := plan.Options{ExhaustiveCap: 1}
				if cap > 0 {
					opts.ExhaustiveCap = cap
				}
				if _, err := plan.Build(g, res.Infos, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFusionModes measures SFusion vs RDP fusion planning cost.
func BenchmarkFusionModes(b *testing.B) {
	m, _ := models.Get("StableDiffusion")
	g := m.Build()
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []fusion.Mode{fusion.Static, fusion.RDP} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fusion.Fuse(g, res.Infos, mode)
			}
		})
	}
}

// BenchmarkMemoryPlanners measures the three offset planners on a real
// trace-derived program.
func BenchmarkMemoryPlanners(b *testing.B) {
	m, _ := models.Get("YOLO-V6")
	c, err := frameworks.Compile(m)
	if err != nil {
		b.Fatal(err)
	}
	s := workload.Fixed(m, 1, 320, 0.5, 3)[0]
	res, err := c.Execute(s, false, frameworks.OrderPlanned)
	if err != nil {
		b.Fatal(err)
	}
	prog := frameworks.TraceProgram(c.Graph, res.Trace, c.FusionRDP.Internal)
	b.Run("peak-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memplan.PeakFirst(prog)
		}
	})
	b.Run("best-fit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			memplan.BestFit(prog)
		}
	})
}

// BenchmarkEndToEndInference measures the real executor (kernels + Go)
// per model at the minimum input size.
func BenchmarkEndToEndInference(b *testing.B) {
	for _, m := range models.All() {
		c, err := frameworks.Compile(m)
		if err != nil {
			b.Fatal(err)
		}
		s := workload.Fixed(m, 1, m.MinSize, 0.5, 3)[0]
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Execute(s, false, frameworks.OrderPlanned); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
