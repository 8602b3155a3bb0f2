package bench

import (
	"repro/internal/costmodel"
	"repro/internal/frameworks"
	"repro/internal/workload"
)

// Table1 reproduces the motivation study: MNN's re-initialization
// overhead (shape-prop/layout, schedule/tune, allocation) vs inference
// time when every input has a new shape, on CPU and GPU.
func (s *Suite) Table1() error {
	s.printf("\n== Table 1: inference overhead for shape dynamism w/ execution re-initialization (MNN policy) ==\n")
	s.printf("%-12s | %8s %8s %8s %8s | %8s %8s %8s %8s\n",
		"Model", "SL(ms)", "ST(ms)", "Alloc", "Infer", "gSL(ms)", "gST(ms)", "gAlloc", "gInfer")
	for _, name := range []string{"YOLO-V6", "Conformer", "CodeBERT"} {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		row := make([]float64, 8)
		for di, dev := range []costmodel.Device{costmodel.SD888CPU, costmodel.SD888GPU} {
			mnn := NewMNNWithReinit()
			samples := workload.Samples(c.Builder, s.opts.Samples, s.opts.Seed)
			// Force a shape change every run: re-sort so consecutive
			// samples differ (random sampling already mostly does).
			var sl, st, al, inf float64
			n := 0
			for _, smp := range samples {
				mnn.Reset() // new shape every inference (worst case)
				r, err := s.price(mnn, c, smp, dev)
				if err != nil {
					return err
				}
				sl += r.Phases["reinit-sl"]
				st += r.Phases["reinit-st"]
				al += r.Phases["reinit-alloc"]
				inf += r.Phases["infer"]
				n++
			}
			row[di*4+0] = sl / float64(n)
			row[di*4+1] = st / float64(n)
			row[di*4+2] = al / float64(n)
			row[di*4+3] = inf / float64(n)
		}
		s.printf("%-12s | %8.1f %8.1f %8.1f %8.1f | %8.1f %8.1f %8.1f %8.1f\n",
			name, row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7])
	}
	s.printf("(paper: re-initialization usually exceeds the inference itself, drastically so on GPU)\n")
	return nil
}

// engines builds the Table 5/6 engine set.
func engines() []Engine {
	return []Engine{
		NewORT(),
		NewMNN(),
		NewTVMN(),
		NewSoD2(frameworks.FullSoD2()),
	}
}

// Table5 reproduces the end-to-end memory comparison on mobile CPU:
// min/max intermediate-result memory per model per framework, plus the
// geo-mean normalized by SoD².
func (s *Suite) Table5() error {
	s.printf("\n== Table 5: memory consumption (intermediate results, MB) on mobile CPU ==\n")
	dev := costmodel.SD888CPU
	engs := engines()
	s.printf("%-16s %-5s |", "Model", "Dyn")
	for _, e := range engs {
		s.printf(" %7s-min %7s-max |", e.Name(), e.Name())
	}
	s.printf("\n")

	avgMem := map[string]map[string]float64{} // engine → model → avg bytes
	for _, e := range engs {
		avgMem[e.Name()] = map[string]float64{}
	}
	for _, name := range tableModels() {
		c, err := s.model(name)
		if err != nil {
			return err
		}
		samples := workload.Samples(c.Builder, s.opts.Samples, s.opts.Seed)
		s.printf("%-16s %-5s |", name, c.Builder.Dynamism)
		for _, e := range engs {
			if !e.Supports(name, dev) {
				s.printf(" %11s %11s |", "-", "-")
				continue
			}
			a, err := s.runEngine(e, c, samples, dev)
			if err != nil {
				return err
			}
			avgMem[e.Name()][name] = a.avgMem()
			s.printf(" %11.2f %11.2f |", mb(a.minMem), mb(a.maxMem))
		}
		s.printf("\n")
	}
	// Geo-mean normalized by SoD² over mutually-supported models.
	s.printf("geo-mean memory normalized by SoD2:")
	for _, e := range engs[:3] {
		var ratios []float64
		for name, m := range avgMem[e.Name()] {
			if sod := avgMem["SoD2"][name]; sod > 0 {
				ratios = append(ratios, m/sod)
			}
		}
		s.printf("  %s %.2fx", e.Name(), geomean(ratios))
	}
	s.printf("  SoD2 1.00x\n(paper: ORT 3.64x, MNN 1.37x, TVM-N 8.62x)\n")
	return nil
}

// Table6 reproduces the end-to-end latency comparison, CPU and GPU.
func (s *Suite) Table6() error {
	s.printf("\n== Table 6: end-to-end latency (ms), mobile CPU and GPU ==\n")
	engs := engines()
	for _, dev := range []costmodel.Device{costmodel.SD888CPU, costmodel.SD888GPU} {
		s.printf("--- %s ---\n", dev.Name)
		s.printf("%-16s |", "Model")
		for _, e := range engs {
			s.printf(" %7s-min %7s-max |", e.Name(), e.Name())
		}
		s.printf("\n")
		avgLat := map[string]map[string]float64{}
		for _, e := range engs {
			avgLat[e.Name()] = map[string]float64{}
		}
		for _, name := range tableModels() {
			c, err := s.model(name)
			if err != nil {
				return err
			}
			samples := workload.Samples(c.Builder, s.opts.Samples, s.opts.Seed)
			s.printf("%-16s |", name)
			for _, e := range engs {
				if !e.Supports(name, dev) {
					s.printf(" %11s %11s |", "-", "-")
					continue
				}
				a, err := s.runEngine(e, c, samples, dev)
				if err != nil {
					return err
				}
				avgLat[e.Name()][name] = a.avgLat()
				s.printf(" %11.2f %11.2f |", a.minLat, a.maxLat)
			}
			s.printf("\n")
		}
		s.printf("geo-mean latency normalized by SoD2:")
		for _, e := range engs[:3] {
			var ratios []float64
			for name, l := range avgLat[e.Name()] {
				if sod := avgLat["SoD2"][name]; sod > 0 {
					ratios = append(ratios, l/sod)
				}
			}
			if len(ratios) > 0 {
				s.printf("  %s %.2fx", e.Name(), geomean(ratios))
			} else {
				s.printf("  %s -", e.Name())
			}
		}
		s.printf("  SoD2 1.00x\n")
	}
	s.printf("(paper CPU: ORT 2.5x, MNN 1.7x, TVM-N 2.7x; GPU: ORT 3.9x, MNN 2.3x)\n")
	return nil
}

// Table7 reproduces the input-distribution study: SoD² speedup on
// YOLO-v6 with samples drawn at the 1st/25th/50th/75th/100th size
// percentile.
func (s *Suite) Table7() error {
	s.printf("\n== Table 7: latency speedup of SoD2 on YOLO-V6 by input-size percentile (CPU) ==\n")
	c, err := s.model("YOLO-V6")
	if err != nil {
		return err
	}
	dev := costmodel.SD888CPU
	sod2 := NewSoD2(frameworks.FullSoD2())
	baselines := []Engine{NewORT(), NewMNN(), NewTVMN()}
	pcts := []float64{1, 25, 50, 75, 100}
	s.printf("%-8s |", "Baseline")
	for _, p := range pcts {
		s.printf(" %6.0fth |", p)
	}
	s.printf("\n")
	results := map[string][]float64{}
	for _, p := range pcts {
		samples := workload.PercentileSamples(c.Builder, s.opts.Samples, p, s.opts.Seed+uint64(p))
		aS, err := s.runEngine(sod2, c, samples, dev)
		if err != nil {
			return err
		}
		for _, e := range baselines {
			a, err := s.runEngine(e, c, samples, dev)
			if err != nil {
				return err
			}
			results[e.Name()] = append(results[e.Name()], a.avgLat()/aS.avgLat())
		}
	}
	for _, e := range baselines {
		s.printf("%-8s |", e.Name())
		for _, v := range results[e.Name()] {
			s.printf("  %5.2fx |", v)
		}
		s.printf("\n")
	}
	s.printf("(paper: speedups grow with the percentile; e.g. MNN 1.41x→1.65x, TVM-N 2.13x→3.90x)\n")
	return nil
}
