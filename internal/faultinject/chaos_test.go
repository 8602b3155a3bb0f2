package faultinject

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/guard"
	"repro/internal/models"
	"repro/internal/tensor"
)

// structured reports whether an execution failure is one of the typed
// errors the guarded runtime is contracted to produce — anything else
// (and above all, a panic) is a containment bug.
func structured(err error) bool {
	var oe *guard.OpError
	var ce *guard.ContractError
	return errors.As(err, &oe) || errors.As(err, &ce) ||
		exec.IsArenaFault(err) || errors.Is(err, ErrInjected)
}

// countEvents runs one clean inference and returns how many kernel
// launches and allocations it performs (the sweep's injection space).
func countEvents(t *testing.T, c *frameworks.Compiled, inputs map[string]*tensor.Tensor) (int64, int64) {
	t.Helper()
	counter := New(KernelError, -1) // never fires; counters still advance
	if _, _, err := c.GuardedRun(inputs, frameworks.GuardOptions{Hooks: counter.Hooks()}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	oom := New(AllocOOM, -1)
	if _, _, err := c.GuardedRun(inputs, frameworks.GuardOptions{Hooks: oom.Hooks()}); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	return counter.kernels.Load(), oom.allocs.Load()
}

// TestChaosSweep injects every fault mode at several points of every
// model's execution and asserts the guarded-execution contract: the
// inference either fails with a structured, typed error or completes
// with outputs identical to the clean reference — it never panics.
func TestChaosSweep(t *testing.T) {
	for _, b := range models.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, err := frameworks.Compile(b)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			inputs := b.Inputs(tensor.NewRNG(11), b.MinSize, 0.5)
			ref, err := exec.Run(c.Graph, inputs, exec.Options{})
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			kernels, allocs := countEvents(t, c, inputs)
			if kernels == 0 || allocs == 0 {
				t.Fatalf("no injection space: kernels=%d allocs=%d", kernels, allocs)
			}

			points := func(n int64) []int64 {
				ps := []int64{0, n / 3, 2 * n / 3, n - 1}
				var uniq []int64
				seen := map[int64]bool{}
				for _, p := range ps {
					if p >= 0 && p < n && !seen[p] {
						seen[p] = true
						uniq = append(uniq, p)
					}
				}
				return uniq
			}

			for _, mode := range []Mode{KernelError, KernelPanic, AllocOOM, NaNCorruption} {
				space := kernels
				if mode == AllocOOM {
					space = allocs
				}
				for _, pt := range points(space) {
					inj := New(mode, pt)
					res, gr, err := c.GuardedRun(inputs, frameworks.GuardOptions{Hooks: inj.Hooks()})
					label := mode.String()
					switch {
					case err != nil:
						if !structured(err) {
							t.Errorf("%s@%d: unstructured error: %v", label, pt, err)
						}
					case mode == NaNCorruption:
						// NaN either reaches an output (caught above as a
						// KindNumeric contract error) or is absorbed by a
						// comparison op — completion is acceptable, shapes
						// must still match the reference.
						for name, want := range ref.Outputs {
							got := res.Outputs[name]
							if got == nil || len(got.Shape) != len(want.Shape) {
								t.Errorf("%s@%d: output %q shape diverges", label, pt, name)
							}
						}
					default:
						// Degraded-but-correct completion: the fault fired,
						// the runtime fell back, outputs match exactly.
						if inj.Fired() && len(gr.Degradations) == 0 {
							t.Errorf("%s@%d: fault fired but no degradation recorded", label, pt)
						}
						for name, want := range ref.Outputs {
							got := res.Outputs[name]
							if got == nil || !tensor.AllClose(got, want, 1e-5) {
								t.Errorf("%s@%d: output %q diverges after recovery", label, pt, name)
							}
						}
					}
				}
			}
		})
	}
}

// TestChaosOOMRecovery pins the headline degradation path: a one-shot
// arena OOM at the first allocation must complete via the dynamic tier
// with the degradation on record and byte-exact outputs.
func TestChaosOOMRecovery(t *testing.T) {
	b, _ := models.Get("YOLO-V6")
	c, err := frameworks.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(tensor.NewRNG(11), 256, 0.5)
	ref, err := exec.Run(c.Graph, inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := New(AllocOOM, 0)
	res, gr, err := c.GuardedRun(inputs, frameworks.GuardOptions{Hooks: inj.Hooks()})
	if err != nil {
		t.Fatalf("one-shot OOM should degrade, not fail: %v", err)
	}
	if !inj.Fired() || inj.Hits() != 1 {
		t.Fatalf("injector fired=%v hits=%d", inj.Fired(), inj.Hits())
	}
	if gr.Tier != guard.TierDynamic || len(gr.Degradations) == 0 {
		t.Fatalf("degradation not recorded: %+v", gr)
	}
	for name, want := range ref.Outputs {
		if got := res.Outputs[name]; got == nil || !tensor.AllClose(got, want, 1e-5) {
			t.Errorf("output %q diverges", name)
		}
	}
}

// TestChaosConcurrentFaultIsolation runs four inferences in flight at
// once on one shared Compiled, one of them carrying an arena-OOM
// injector. Containment must be per-request: the faulted inference
// degrades to the dynamic tier, the other three stay planned with no
// degradations, and all four produce outputs matching the reference.
func TestChaosConcurrentFaultIsolation(t *testing.T) {
	b, _ := models.Get("YOLO-V6")
	c, err := frameworks.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(tensor.NewRNG(11), 256, 0.5)
	ref, err := exec.Run(c.Graph, inputs, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Prove the region first so every request below is served by the
	// memoized proof — the fault must be isolated on that path too.
	if _, _, err := c.GuardedRun(inputs, frameworks.GuardOptions{}); err != nil {
		t.Fatal(err)
	}

	const inFlight = 4
	const faulted = 2 // index of the request carrying the injector
	inj := New(AllocOOM, 0)
	type result struct {
		res *exec.Result
		gr  *frameworks.GuardReport
		err error
	}
	results := make([]result, inFlight)
	start := make(chan struct{})
	var ready, wg sync.WaitGroup
	for g := 0; g < inFlight; g++ {
		ready.Add(1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := frameworks.GuardOptions{}
			if g == faulted {
				opts.Hooks = inj.Hooks()
			}
			ready.Done()
			<-start
			res, gr, err := c.GuardedRun(inputs, opts)
			results[g] = result{res, gr, err}
		}(g)
	}
	ready.Wait()
	close(start)
	wg.Wait()

	if !inj.Fired() {
		t.Fatal("injector never fired")
	}
	for g, r := range results {
		if r.err != nil {
			t.Fatalf("request %d failed: %v", g, r.err)
		}
		if g == faulted {
			if r.gr.Tier != guard.TierDynamic || len(r.gr.Degradations) == 0 {
				t.Errorf("faulted request should degrade to dynamic: %+v", r.gr)
			}
		} else if len(r.gr.Degradations) != 0 {
			t.Errorf("healthy request %d degraded: %+v", g, r.gr.Degradations)
		}
		for name, want := range ref.Outputs {
			if got := r.res.Outputs[name]; got == nil || !tensor.AllClose(got, want, 1e-5) {
				t.Errorf("request %d output %q diverges", g, name)
			}
		}
	}
}

// TestChaosRepeatOOMFails verifies the negative: a repeating OOM defeats
// the fallback too, and the failure is still a typed arena fault.
func TestChaosRepeatOOMFails(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, err := frameworks.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(tensor.NewRNG(11), 64, 0.5)
	inj := New(AllocOOM, 0)
	inj.Repeat = true
	_, _, err = c.GuardedRun(inputs, frameworks.GuardOptions{Hooks: inj.Hooks()})
	if !errors.Is(err, exec.ErrArenaExhausted) {
		t.Fatalf("want persistent arena fault, got %v", err)
	}
	if inj.Hits() < 2 {
		t.Errorf("fault should have fired on both tiers, hits=%d", inj.Hits())
	}
}

func TestInjectorDeterminism(t *testing.T) {
	b, _ := models.Get("CodeBERT")
	c, err := frameworks.Compile(b)
	if err != nil {
		t.Fatal(err)
	}
	inputs := b.Inputs(tensor.NewRNG(11), 64, 0.5)
	msg := func() string {
		inj := New(KernelError, 5)
		_, _, err := c.GuardedRun(inputs, frameworks.GuardOptions{Hooks: inj.Hooks()})
		if err == nil {
			t.Fatal("kernel error at 5 should fail")
		}
		return err.Error()
	}
	if a, b := msg(), msg(); a != b {
		t.Errorf("same injection point, different failures:\n%s\n%s", a, b)
	}
}
