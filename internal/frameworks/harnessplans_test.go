package frameworks

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/costmodel"
	"repro/internal/fusion"
	"repro/internal/models"
	"repro/internal/mvc"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// TestServingLeavesHarnessPlansUnbuilt pins that the harness plans stay
// off the serving path: a cold verified compile, a cold and a warm boot
// through the artifact store, float32 and int8, and guarded runs on
// each, build none of them on any of the ten models.
func TestServingLeavesHarnessPlansUnbuilt(t *testing.T) {
	for _, format := range []tensor.DType{tensor.Float32, tensor.Int8} {
		cfg := SchedConfig{Quant: QuantConfig{Format: format}}
		st, err := artifact.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range models.All() {
			verified, _, err := CompileVerifiedSched(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold, _, _, err := CompileWithStoreSched(b, st, "cpu", cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, info, err := CompileWithStoreSched(b, st, "cpu", cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Warm {
				t.Fatalf("%s %v: second boot was not warm: %+v", b.Name, format, info)
			}
			for i, c := range []*Compiled{verified, cold, warm} {
				if _, _, err := c.GuardedRun(b.Inputs(tensor.NewRNG(1), b.MinSize, 0.5), GuardOptions{}); err != nil {
					t.Fatalf("%s %v compile %d: %v", b.Name, format, i, err)
				}
				if c.harness != nil {
					t.Errorf("%s %v compile %d: serving built the harness plans", b.Name, format, i)
				}
			}
			if verified.MVCPlan(); verified.harness == nil {
				t.Fatalf("%s: MVCPlan did not build the harness plans", b.Name)
			}
		}
	}
}

// TestHarnessPlansBuildOnceConcurrently races the lazy build: goroutines
// run the modeled SoD² engine and read the static fusion plan the
// baselines are priced with on one fresh Compiled, whose first use
// builds the MVC and static fusion plans. Every report and every static
// plan (each node's group, each group's members and versions, the
// internal values) equals the serial one's, and all goroutines share
// one built plan.
func TestHarnessPlansBuildOnceConcurrently(t *testing.T) {
	dev := costmodel.SD888CPU
	type result struct {
		rep    Report
		static staticPlanView
	}
	for _, name := range []string{"RaNet", "Conformer"} {
		b, _ := models.Get(name)
		s := workload.Fixed(b, 1, b.MinSize, 0.5, 11)[0]
		run := func(c *Compiled) (result, *fusion.Plan, error) {
			r, err := NewSoD2(FullSoD2()).Run(c, s, dev)
			fp := c.FusionStatic()
			return result{r, viewStaticPlan(fp)}, fp, err
		}
		want, serial, err := run(compiled(t, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(want.static.NodeGroup) != len(serial.NodeGroup) {
			t.Fatalf("%s: node names are not unique, the view by name would hide a misgrouped node", name)
		}
		c := compiled(t, name)
		const goroutines = 8
		errs := make(chan error, goroutines)
		plans := make([]*fusion.Plan, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, fp, err := run(c)
				plans[g] = fp
				switch {
				case err != nil:
					errs <- err
				case !reflect.DeepEqual(got, want):
					errs <- fmt.Errorf("%s: concurrent result %+v, serial %+v", name, got, want)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		for g, fp := range plans {
			if fp != plans[0] {
				t.Errorf("%s: goroutine %d read a different static plan than goroutine 0", name, g)
			}
		}
	}
}

// staticPlanView is a fusion plan keyed by node names, so plans built
// on different Compileds of one model compare with reflect.DeepEqual.
type staticPlanView struct {
	Mode      fusion.Mode
	Groups    []groupView
	NodeGroup map[string]int
	Internal  map[string]bool
}

type groupView struct {
	ID       int
	Nodes    []string
	Versions int
}

func viewStaticPlan(fp *fusion.Plan) staticPlanView {
	v := staticPlanView{Mode: fp.Mode, NodeGroup: map[string]int{}, Internal: fp.Internal}
	for _, g := range fp.Groups {
		gv := groupView{ID: g.ID, Versions: g.Versions}
		for _, n := range g.Nodes {
			gv.Nodes = append(gv.Nodes, n.Name)
		}
		v.Groups = append(v.Groups, gv)
	}
	for n, gid := range fp.NodeGroup {
		v.NodeGroup[n.Name] = gid
	}
	return v
}

// TestMVCCoversEveryHotspotEvent checks that MVC's regime enumeration
// is sound: across each model's size range, with every branch executed
// so that body hotspots run too, every hotspot op lands in a regime its
// plan generated a version for, and every hotspot runs at least once.
// Conformer's MatMul_100 (m = 9…31, n = 8 at sizes 33–124: regular) is
// the case a corner-and-midpoint probe of the (m, n) box misses.
func TestMVCCoversEveryHotspotEvent(t *testing.T) {
	for _, b := range models.All() {
		c := compiled(t, b.Name)
		hp := c.harnessPlans()
		seen := map[*mvc.NodeVersions]bool{}
		// Five or six sizes per model, the stride a multiple of the
		// model's size step; Conformer's (88) lands at 120.
		stride := max((b.MaxSize-b.MinSize+3)/4, 1)
		stride += (b.SizeStep - stride%b.SizeStep) % b.SizeStep
		var sizes []int64
		for size := b.MinSize; size < b.MaxSize; size += stride {
			sizes = append(sizes, size)
		}
		for _, size := range append(sizes, b.MaxSize) {
			s := workload.Fixed(b, 1, size, 0.5, 5)[0]
			res, err := c.Execute(s, true, OrderTopo)
			if err != nil {
				t.Fatalf("%s size %d: %v", b.Name, size, err)
			}
			for _, ev := range res.Trace.Events {
				h := hp.hotspots[ev.Node]
				if h == nil || ev.Skipped {
					continue
				}
				seen[h] = true
				m, n := hotspotMN(ev)
				if !hasRegime(h, mvc.RegimeOf(m, n)) {
					t.Errorf("%s size %d: %s (m=%d, n=%d) is %v, plan has %v",
						b.Name, size, ev.Node.Name, m, n, mvc.RegimeOf(m, n), h.PossibleRegimes)
				}
			}
		}
		for i := range hp.mvc.Hotspots {
			if h := &hp.mvc.Hotspots[i]; !seen[h] {
				t.Errorf("%s: hotspot %s never ran", b.Name, h.Node.Name)
			}
		}
	}
}

func hasRegime(h *mvc.NodeVersions, r mvc.Regime) bool {
	for _, v := range h.Versions {
		if v.Regime == r {
			return true
		}
	}
	return false
}
