package models

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/rdp"
	"repro/internal/tensor"
)

func TestAllModelsRegistered(t *testing.T) {
	want := []string{"StableDiffusion", "SegmentAnything", "Conformer", "CodeBERT",
		"YOLO-V6", "SkipNet", "DGNet", "ConvNet-AIG", "RaNet", "BlockDrop"}
	if len(All()) != len(want) {
		t.Fatalf("registered %d models, want %d", len(All()), len(want))
	}
	for _, name := range want {
		if _, ok := Get(name); !ok {
			t.Errorf("model %s missing", name)
		}
	}
}

func TestAllGraphsValidate(t *testing.T) {
	for _, b := range All() {
		g := b.Build()
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if g.NumOps() < 10 {
			t.Errorf("%s: only %d ops — too trivial", b.Name, g.NumOps())
		}
	}
}

func TestAllModelsAnalyzeUnderRDP(t *testing.T) {
	for _, b := range All() {
		g := b.Build()
		res, err := rdp.Analyze(g, nil, rdp.Options{})
		if err != nil {
			t.Errorf("%s: rdp: %v", b.Name, err)
			continue
		}
		st := res.Statistics()
		if st.ResolvedFraction() < 0.5 {
			t.Errorf("%s: only %.0f%% of tensors resolved (nac=%v undef=%v)",
				b.Name, st.ResolvedFraction()*100, st.NACValues, st.Unresolved)
		}
	}
}

// Every model must execute end-to-end at its min and max input size, for
// both branch policies, and produce finite outputs.
func TestAllModelsExecute(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			g := b.Build()
			rng := tensor.NewRNG(42)
			for _, size := range []int64{b.MinSize, b.MaxSize} {
				size = size - size%b.SizeStep
				if size < b.MinSize {
					size = b.MinSize
				}
				inputs := b.Inputs(rng, size, 0.5)
				res, err := exec.Run(g, inputs, exec.Options{})
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if len(res.Outputs) == 0 {
					t.Fatalf("size %d: no outputs", size)
				}
				for name, out := range res.Outputs {
					if out == nil {
						t.Fatalf("size %d: output %s nil", size, name)
					}
					for _, v := range out.F {
						if v != v { // NaN
							t.Fatalf("size %d: output %s has NaN", size, name)
						}
					}
				}
				if res.Trace.PeakLiveBytes <= 0 {
					t.Errorf("size %d: no memory accounted", size)
				}
			}
		})
	}
}

func TestControlFlowModelsReactToGateBias(t *testing.T) {
	for _, name := range []string{"SkipNet", "BlockDrop", "ConvNet-AIG", "DGNet"} {
		b, _ := Get(name)
		g := b.Build()
		rng := tensor.NewRNG(7)
		size := b.MinSize
		countSkipped := func(gateBias float32) int {
			res, err := exec.Run(g, b.Inputs(rng, size, gateBias), exec.Options{Hooks: &exec.Hooks{}})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			n := 0
			for _, e := range res.Trace.Events {
				if e.Skipped {
					n++
				}
			}
			return n
		}
		allOn := countSkipped(1.0)  // strong positive bias: take every block
		allOff := countSkipped(0.0) // strong negative bias: skip every block
		if allOff <= allOn {
			t.Errorf("%s: skipped(off)=%d <= skipped(on)=%d", name, allOff, allOn)
		}
	}
}

func TestRaNetEarlyExitChangesWork(t *testing.T) {
	b, _ := Get("RaNet")
	g := b.Build()
	rng := tensor.NewRNG(3)
	run := func(gateBias float32) int {
		res, err := exec.Run(g, b.Inputs(rng, 224, gateBias), exec.Options{Hooks: &exec.Hooks{}})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Trace.Events)
	}
	exitEarly := run(1.0) // high confidence bias → early exit
	full := run(0.0)      // low → full-resolution branch
	if full <= exitEarly {
		t.Errorf("full branch events %d <= early exit %d", full, exitEarly)
	}
}

func TestShapeModelsVaryWithSize(t *testing.T) {
	b, _ := Get("YOLO-V6")
	g := b.Build()
	rng := tensor.NewRNG(5)
	small, err := exec.Run(g, b.Inputs(rng, 224, 0.5), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := exec.Run(g, b.Inputs(rng, 416, 0.5), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if big.Trace.PeakLiveBytes <= small.Trace.PeakLiveBytes {
		t.Errorf("peak small=%d big=%d", small.Trace.PeakLiveBytes, big.Trace.PeakLiveBytes)
	}
}
