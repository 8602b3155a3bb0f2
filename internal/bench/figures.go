package bench

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/frameworks"
	"repro/internal/graph"
	"repro/internal/lattice"
	"repro/internal/memplan"
	"repro/internal/models"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/symbolic"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// breakdownModels are the four models of Fig. 5/6/7.
func breakdownModels() []string {
	return []string{"StableDiffusion", "CodeBERT", "RaNet", "BlockDrop"}
}

// optLevels are the cumulative optimization configurations of Fig. 5/6.
func optLevels() []struct {
	Label string
	Opts  frameworks.SoD2Options
} {
	return []struct {
		Label string
		Opts  frameworks.SoD2Options
	}{
		{"No opt.", frameworks.SoD2Options{}},
		{"+Fusion", frameworks.SoD2Options{Fusion: true}},
		{"+SEP", frameworks.SoD2Options{Fusion: true, SEP: true}},
		{"+DMP", frameworks.SoD2Options{Fusion: true, SEP: true, DMP: true}},
		{"+MVC", frameworks.FullSoD2()},
	}
}

// Fig5 reproduces the memory-reduction breakdown by optimization (CPU).
func (s *Suite) Fig5() error {
	s.printf("\n== Fig. 5: normalized memory by optimization level (CPU; lower is better) ==\n")
	dev := costmodel.SD888CPU
	levels := optLevels()[:4] // MVC does not affect memory
	s.printf("%-16s |", "Model")
	for _, lv := range levels {
		s.printf(" %8s |", lv.Label)
	}
	s.printf("\n")
	for _, name := range breakdownModels() {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		samples := workload.Samples(c.Builder, s.opts.Samples, s.opts.Seed)
		var base float64
		s.printf("%-16s |", name)
		for i, lv := range levels {
			a, err := s.runEngine(NewSoD2(lv.Opts), c, samples, dev)
			if err != nil {
				return err
			}
			if i == 0 {
				base = a.avgMem()
			}
			s.printf(" %8.2f |", a.avgMem()/base)
		}
		s.printf("\n")
	}
	s.printf("(paper: fusion 18–30%%, +SEP extra 22–37%%, +DMP extra 3–7%% reduction)\n")
	return nil
}

// Fig6 reproduces the latency-speedup breakdown by optimization, CPU+GPU.
func (s *Suite) Fig6() error {
	s.printf("\n== Fig. 6: speedup over No-opt by optimization level ==\n")
	for _, dev := range []costmodel.Device{costmodel.SD888CPU, costmodel.SD888GPU} {
		s.printf("--- %s ---\n", dev.Name)
		levels := optLevels()
		s.printf("%-16s |", "Model")
		for _, lv := range levels {
			s.printf(" %8s |", lv.Label)
		}
		s.printf("\n")
		for _, name := range breakdownModels() {
			c, err := s.model(name)
			if err != nil {
				return err
			}
			samples := workload.Samples(c.Builder, s.opts.Samples, s.opts.Seed)
			var base float64
			s.printf("%-16s |", name)
			for i, lv := range levels {
				a, err := s.runEngine(NewSoD2(lv.Opts), c, samples, dev)
				if err != nil {
					return err
				}
				if i == 0 {
					base = a.avgLat()
				}
				s.printf(" %7.2fx |", base/a.avgLat())
			}
			s.printf("\n")
		}
	}
	s.printf("(paper CPU: fusion 1.3–1.9x, +SEP 1.1–1.3x, +DMP 1.04–1.1x, +MVC 1.3–1.6x)\n")
	return nil
}

// envFor binds the free symbols of a model's input shapes to size.
func envFor(c *frameworks.Compiled, size int64) symbolic.Env {
	env := symbolic.Env{}
	for _, in := range c.Graph.Inputs {
		if in.Shape.Kind != lattice.ShapeRanked {
			continue
		}
		for _, d := range in.Shape.Dims {
			if d.IsExpr() {
				for _, sym := range symbolic.FreeSyms(d.E) {
					env[sym] = size
				}
			}
		}
	}
	return env
}

// Fig7 reproduces the fusion breakdown: layer count and intermediate-
// result size for Original / static fusion / RDP fusion.
func (s *Suite) Fig7() error {
	s.printf("\n== Fig. 7: fusion effect — layer count and IR size (normalized by no fusion) ==\n")
	s.printf("%-16s | %9s %9s %9s | %9s %9s %9s\n",
		"Model", "orig-lyr", "sfus-lyr", "rdp-lyr", "orig-IR", "sfus-IR", "rdp-IR")
	for _, name := range breakdownModels() {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		size := (c.Builder.MinSize + c.Builder.MaxSize) / 2
		size -= size % c.Builder.SizeStep
		env := envFor(c, size)
		static := c.FusionStatic().Measure(c.Graph, c.Infos, env)
		rdpM := c.FusionRDP.Measure(c.Graph, c.Infos, env)
		// Fusion plans cover If/Loop bodies too, so normalize by the
		// total op count including subgraphs.
		orig := float64(c.Graph.NumOps())
		irBase := float64(static.IRBytesBefore)
		if irBase == 0 {
			irBase = 1
		}
		s.printf("%-16s | %9.2f %9.2f %9.2f | %9.2f %9.2f %9.2f\n", name,
			1.0, float64(static.FusedLayers)/orig, float64(rdpM.FusedLayers)/orig,
			1.0, float64(static.IRBytesAfter)/irBase, float64(rdpM.IRBytesAfter)/irBase)
	}
	s.printf("(paper: SFusion cuts layers 26–61%%; RDP fusion an extra 16–46%% and 13–40%% IR size)\n")
	return nil
}

// Fig8 reproduces the sub-graph statistics: percentage of sub-graphs and
// of latency per shape class, for RaNet and BlockDrop.
func (s *Suite) Fig8() error {
	s.printf("\n== Fig. 8: sub-graph classes (count %% / latency %%) ==\n")
	dev := costmodel.SD888CPU
	classes := []plan.SubgraphClass{plan.AllKnownConst, plan.MixedConst1,
		plan.MixedConst2to4, plan.MixedConst5to8, plan.WithNAC}
	s.printf("%-12s |", "Model")
	for _, cl := range classes {
		s.printf(" %16s |", cl)
	}
	s.printf("\n")
	for _, name := range []string{"RaNet", "BlockDrop"} {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		// Sub-graph counts.
		counts := map[plan.SubgraphClass]int{}
		nodeClass := map[string]plan.SubgraphClass{}
		for _, sg := range c.ExecPlan.Subgraphs {
			counts[sg.Class]++
			for _, n := range sg.Nodes {
				nodeClass[n.Name] = sg.Class
			}
		}
		total := len(c.ExecPlan.Subgraphs)
		// Latency attribution over one median sample.
		sample := workload.Fixed(c.Builder, 1, (c.Builder.MinSize+c.Builder.MaxSize)/2, 0.5, s.opts.Seed)[0]
		tr, err := s.trace(c, sample, Policy{Order: frameworks.OrderPlanned})
		if err != nil {
			return err
		}
		latBy := map[plan.SubgraphClass]float64{}
		var latTotal float64
		for _, ev := range tr.Events {
			if ev.Skipped {
				continue
			}
			cost := dev.EventCost(ev, 1)
			latBy[nodeClass[ev.Node.Name]] += cost
			latTotal += cost
		}
		s.printf("%-12s |", name)
		for _, cl := range classes {
			s.printf("   %5.1f%% / %5.1f%% |",
				100*float64(counts[cl])/float64(total), 100*latBy[cl]/latTotal)
		}
		s.printf("\n")
	}
	s.printf("(paper: >90%% of sub-graphs are all-known or mixed-const)\n")
	return nil
}

// Fig9 reproduces the same-execution-path comparison: control flow
// disabled (execute all branches) in both SoD² and MNN.
func (s *Suite) Fig9() error {
	s.printf("\n== Fig. 9: same execution path (execute-all-branches) vs MNN, CPU ==\n")
	dev := costmodel.SD888CPU
	s.printf("%-12s | %9s | %9s\n", "Model", "speedup", "mem-red.")
	allOpts := frameworks.FullSoD2()
	allOpts.ExecuteAllBranches = true
	for _, name := range []string{"SkipNet", "ConvNet-AIG", "RaNet", "BlockDrop"} {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		samples := workload.Samples(c.Builder, s.opts.Samples, s.opts.Seed)
		aS, err := s.runEngine(NewSoD2(allOpts), c, samples, dev)
		if err != nil {
			return err
		}
		aM, err := s.runEngine(NewMNN(), c, samples, dev)
		if err != nil {
			return err
		}
		s.printf("%-12s |   %5.2fx |   %5.2fx\n", name,
			aM.avgLat()/aS.avgLat(), aM.avgMem()/aS.avgMem())
	}
	s.printf("(paper: 1.5–2.0x speedup, 1.2–1.5x memory reduction without branch selection)\n")
	return nil
}

// Fig10 reproduces the input-size sweep on YOLO-v6: latency vs 15
// increasing input sizes, MNN vs SoD², CPU and GPU.
func (s *Suite) Fig10() error {
	s.printf("\n== Fig. 10: latency vs input size, YOLO-V6 (15 sizes) ==\n")
	c, err := s.model("YOLO-V6")
	if err != nil {
		return err
	}
	samples := workload.Sweep(c.Builder, 15, s.opts.Seed)
	for _, dev := range []costmodel.Device{costmodel.SD888CPU, costmodel.SD888GPU} {
		s.printf("--- %s ---\n%-8s", dev.Name, "size:")
		for _, smp := range samples {
			s.printf(" %7d", smp.Size)
		}
		s.printf("\n")
		for _, e := range []Engine{NewMNNWithReinit(), NewSoD2(frameworks.FullSoD2())} {
			e.Reset()
			s.printf("%-8s", e.Name()+":")
			for _, smp := range samples {
				r, err := s.price(e, c, smp, dev)
				if err != nil {
					return err
				}
				s.printf(" %7.1f", r.LatencyMS)
			}
			s.printf("\n")
		}
	}
	s.printf("(paper: SoD2 lower and far more stable; MNN re-initializes at every size change)\n")
	return nil
}

// Fig11 reproduces the fixed-memory-budget study vs TFLite with
// XLA-style rematerialization.
func (s *Suite) Fig11() error {
	s.printf("\n== Fig. 11: speedup vs TFLite at equal memory budget (fixed shape & path) ==\n")
	s.printf("%-12s | %9s | %9s\n", "Model", "CPU", "GPU")
	for _, name := range []string{"SkipNet", "RaNet"} {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		sample := workload.Fixed(c.Builder, 1, c.Builder.MinSize, 0.8, s.opts.Seed)[0]
		var cells []float64
		for _, dev := range []costmodel.Device{costmodel.SD888CPU, costmodel.SD888GPU} {
			sod := NewSoD2(frameworks.FullSoD2())
			rS, err := s.price(sod, c, sample, dev)
			if err != nil {
				return err
			}
			// Budget = SoD²'s peak; TFLite pays rematerialization.
			tfl := NewTFLite(rS.PeakMemBytes)
			rT, err := s.price(tfl, c, sample, dev)
			if err != nil {
				return err
			}
			// Warm TFLite (drop the one-time re-init, as the paper's
			// steady-state comparison does).
			rT2, err := s.price(tfl, c, sample, dev)
			if err != nil {
				return err
			}
			cells = append(cells, rT2.LatencyMS/rS.LatencyMS)
			_ = rT
		}
		s.printf("%-12s |   %5.2fx |   %5.2fx\n", name, cells[0], cells[1])
	}
	s.printf("(paper: SoD2 wins by a larger margin on GPU due to rematerialization cost)\n")
	return nil
}

// Fig12 reproduces the static-overhead study: SoD² vs fully-static
// DNNFusion on frozen shapes and control flow.
func (s *Suite) Fig12() error {
	s.printf("\n== Fig. 12: inference time vs static DNNFusion (frozen shapes & paths) ==\n")
	s.printf("%-12s | %11s | %11s\n", "Model", "CPU-ovhd", "GPU-ovhd")
	staticOpts := frameworks.FullSoD2()
	staticOpts.StaticFrozen = true
	for _, name := range []string{"SkipNet", "RaNet"} {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		sample := workload.Fixed(c.Builder, 1, c.Builder.MinSize, 1.0, s.opts.Seed)[0]
		var cells []float64
		for _, dev := range []costmodel.Device{costmodel.SD888CPU, costmodel.SD888GPU} {
			rS, err := s.price(NewSoD2(frameworks.FullSoD2()), c, sample, dev)
			if err != nil {
				return err
			}
			rD, err := s.price(NewSoD2(staticOpts), c, sample, dev)
			if err != nil {
				return err
			}
			cells = append(cells, (rS.LatencyMS/rD.LatencyMS-1)*100)
		}
		s.printf("%-12s |   %8.1f%% |   %8.1f%%\n", name, cells[0], cells[1])
	}
	s.printf("(paper: 3%% and 7%% average slowdown vs fully-static DNNFusion)\n")
	return nil
}

// Fig13 reproduces the portability study on Snapdragon 835: speedups
// normalized by MNN, five models, CPU and GPU.
func (s *Suite) Fig13() error {
	s.printf("\n== Fig. 13: portability — Snapdragon 835, speedup normalized by MNN ==\n")
	modelsList := []string{"StableDiffusion", "YOLO-V6", "SkipNet", "ConvNet-AIG", "BlockDrop"}
	for _, dev := range []costmodel.Device{costmodel.SD835CPU, costmodel.SD835GPU} {
		s.printf("--- %s ---\n%-16s | %7s %7s %7s %7s\n", dev.Name, "Model", "ORT", "MNN", "TVM-N", "SoD2")
		for _, name := range modelsList {
			c, err := s.model(name)
			if err != nil {
				return err
			}
			samples := workload.Samples(c.Builder, s.opts.Samples, s.opts.Seed)
			aM, err := s.runEngine(NewMNN(), c, samples, dev)
			if err != nil {
				return err
			}
			s.printf("%-16s |", name)
			for _, e := range []Engine{NewORT(), NewMNN(),
				NewTVMN(), NewSoD2(frameworks.FullSoD2())} {
				if !e.Supports(name, dev) {
					s.printf(" %7s", "-")
					continue
				}
				a, err := s.runEngine(e, c, samples, dev)
				if err != nil {
					return err
				}
				s.printf(" %6.2fx", aM.avgLat()/a.avgLat())
			}
			s.printf("\n")
		}
	}
	s.printf("(paper: SoD2's speedups are larger on this more resource-constrained SoC)\n")
	return nil
}

// MemPlanAblation reproduces the §4.4.1 study: SoD²'s peak-first plan vs
// the best-fit greedy, each measured against the exhaustive optimum on
// small sub-programs and against the information-theoretic lower bound
// (peak live bytes) on the full ConvNet-AIG program (paper: SoD² 1.05×
// of optimal, greedy 1.16×).
func (s *Suite) MemPlanAblation() error {
	s.printf("\n== §4.4.1 ablation: memory plan vs optimal on ConvNet-AIG ==\n")
	c, err := s.model("ConvNet-AIG")
	if err != nil {
		return err
	}
	sample := workload.Fixed(c.Builder, 1, c.Builder.MinSize, 0.7, s.opts.Seed)[0]
	tr, err := s.trace(c, sample, Policy{Order: frameworks.OrderBFS})
	if err != nil {
		return err
	}
	// The allocation problem a dynamic framework faces: coarse (deferred)
	// deallocation over the parallelism-first trace.
	prog := frameworks.TraceProgramDeferred(c.Graph, tr, c.FusionRDP.Internal, 3)

	// Full-program comparison against the peak-live lower bound
	// (optimal >= lower bound, so ratios reported are upper bounds on
	// the true x-of-optimal).
	lower := float64(prog.PeakLive())
	pf := float64(memplan.PeakFirst(prog).ArenaSize)
	bf := float64(memplan.BestFit(prog).ArenaSize)
	s.printf("full program (%d buffers): lower bound %.0f bytes\n", len(prog.Bufs), lower)
	s.printf("SoD2 peak-first : %.3fx of lower bound (paper: 1.05x of optimal)\n", pf/lower)
	s.printf("best-fit greedy : %.3fx of lower bound (paper: 1.16x of optimal)\n", bf/lower)

	// Exhaustive-optimum comparison on mixed-lifetime sub-programs: take
	// every 2nd buffer over a 16-buffer span so lifetimes only partially
	// overlap (the regime where placement order matters).
	var pfRatios, bfRatios []float64
	for start := 0; start+16 <= len(prog.Bufs); start += 8 {
		var bufs []memplan.Buf
		for i := start; i < start+16; i += 2 {
			if prog.Bufs[i].Size > 0 {
				bufs = append(bufs, prog.Bufs[i])
			}
		}
		if len(bufs) < 4 {
			continue
		}
		sub := &memplan.Program{Steps: prog.Steps, Bufs: bufs}
		opt, err := memplan.Optimal(sub, 9)
		if err != nil || opt.ArenaSize == 0 {
			continue
		}
		pfRatios = append(pfRatios, float64(memplan.PeakFirst(sub).ArenaSize)/float64(opt.ArenaSize))
		bfRatios = append(bfRatios, float64(memplan.BestFit(sub).ArenaSize)/float64(opt.ArenaSize))
	}
	if len(pfRatios) > 0 {
		s.printf("sub-programs vs exhaustive optimum (%d windows): peak-first %.3fx, best-fit %.3fx\n",
			len(pfRatios), geomean(pfRatios), geomean(bfRatios))
	}

	// Our scaled-down ConvNet-AIG yields uniform buffer sizes that every
	// planner packs optimally; the separation the paper reports appears
	// once lifetimes and sizes are irregular (the real 282-layer model's
	// regime). Stress with deterministic randomized sub-programs:
	rng := tensor.NewRNG(77)
	var pfR, bfR []float64
	for trial := 0; trial < 200; trial++ {
		p := &memplan.Program{Steps: 12}
		for i := 0; i < 7; i++ {
			birth := rng.Intn(10)
			death := birth + 1 + rng.Intn(11-birth)
			sz := int64(16) << uint(rng.Intn(6))
			p.Bufs = append(p.Bufs, memplan.Buf{
				Name: fmt.Sprintf("b%d", i), Size: sz, Birth: birth, Death: death})
		}
		opt, err := memplan.Optimal(p, 9)
		if err != nil || opt.ArenaSize == 0 {
			continue
		}
		pfR = append(pfR, float64(memplan.PeakFirst(p).ArenaSize)/float64(opt.ArenaSize))
		bfR = append(bfR, float64(memplan.BestFit(p).ArenaSize)/float64(opt.ArenaSize))
	}
	s.printf("irregular sub-graph stress (%d programs): peak-first %.3fx, best-fit %.3fx of optimal\n",
		len(pfR), geomean(pfR), geomean(bfR))
	return nil
}

// RDPAblation quantifies the backward transfer functions' contribution
// (design-choice ablation from DESIGN.md §5): per model, the fraction of
// tensors RDP resolves with and without backward transfer, and how many
// tensors only the backward direction resolved.
func (s *Suite) RDPAblation() error {
	s.printf("\n== RDP ablation: backward transfer on/off ==\n")
	s.printf("%-16s | %12s | %12s | %9s | %5s\n",
		"Model", "fwd+bwd res%", "fwd-only res%", "bwd-only#", "iters")
	for _, name := range tableModels() {
		b, ok := models.Get(name)
		if !ok {
			continue
		}
		g := b.Build()
		full, err := rdp.Analyze(g, nil, rdp.Options{})
		if err != nil {
			return err
		}
		fwd, err := rdp.Analyze(g, nil, rdp.Options{DisableBackward: true})
		if err != nil {
			return err
		}
		s.printf("%-16s |       %5.1f%% |       %5.1f%% | %9d | %5d\n",
			name,
			full.Statistics().ResolvedFraction()*100,
			fwd.Statistics().ResolvedFraction()*100,
			full.BackwardResolved, full.Iterations)
	}
	// The models above declare their input shapes, so forward transfer
	// suffices. The Fig. 3(b) scenario — an unknown input pinned only by
	// a known *output* shape — is where backward transfer is essential:
	fg := fig3bGraph()
	full, err := rdp.Analyze(fg, fig3bOverrides(), rdp.Options{})
	if err != nil {
		return err
	}
	fwd, err := rdp.Analyze(fg, fig3bOverrides(), rdp.Options{DisableBackward: true})
	if err != nil {
		return err
	}
	s.printf("%-16s |       %5.1f%% |       %5.1f%% | %9d | %5d\n", "Fig3b-synthetic",
		full.Statistics().ResolvedFraction()*100,
		fwd.Statistics().ResolvedFraction()*100,
		full.BackwardResolved, full.Iterations)
	s.printf("(backward transfer matters when producer shapes are only pinned by consumers — Fig. 3b)\n")
	return nil
}

// fig3bGraph mirrors the paper's Fig. 3(b): the input shape is unknown;
// only the model output's shape is known, and must flow backward through
// Conv-like ops to the input.
func fig3bGraph() *graph.Graph {
	g := graph.New("fig3b")
	g.AddInput("x", tensor.Float32, lattice.UndefShape())
	g.AddInitializer("w", tensor.New(tensor.Float32, 8, 8, 3, 3))
	g.Op("Conv", "c1", []string{"x", "w"}, []string{"a"}, map[string]graph.AttrValue{
		"pads": graph.IntsAttr(1, 1, 1, 1)})
	g.Op("Relu", "r1", []string{"a"}, []string{"b"}, nil)
	g.Op("Transpose", "t1", []string{"b"}, []string{"y"}, map[string]graph.AttrValue{
		"perm": graph.IntsAttr(0, 1, 3, 2)})
	g.AddOutput("y")
	return g
}

func fig3bOverrides() map[string]lattice.Shape {
	two := symbolic.Mul(symbolic.NewConst(2), symbolic.NewSym("a"))
	four := symbolic.Mul(symbolic.NewConst(4), symbolic.NewSym("b"))
	return map[string]lattice.Shape{
		"y": lattice.Ranked(lattice.FromInt(1), lattice.FromInt(8),
			lattice.FromExpr(four), lattice.FromExpr(two)),
	}
}
