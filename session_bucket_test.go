package sod2

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/resilience"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// stallFromHook counts kernel launches and stalls every launch at or
// past a movable threshold — the per-sample analogue of the
// fault-injection stall, used to make exactly one sample of a bucket
// blow a deadline.
type stallFromHook struct {
	launches  atomic.Int64
	stallFrom atomic.Int64 // launch index the stall starts at; <0 = never
	delay     time.Duration
}

func (h *stallFromHook) hooks() *exec.Hooks {
	return &exec.Hooks{PreKernel: func(*graph.Node, []*tensor.Tensor) error {
		idx := h.launches.Add(1) - 1
		if from := h.stallFrom.Load(); from >= 0 && idx >= from {
			time.Sleep(h.delay)
		}
		return nil
	}}
}

// TestInferBatchCtxMixedDeadline pins the mixed-deadline contract of
// InferBucketCtx: when the bucket context expires mid-bucket, exactly the
// deadline-exceeding samples come back Cancelled — never as a model
// error — samples that finished in time keep their outputs, undispatched
// samples are marked without executing, and admission drains to zero.
func TestInferBatchCtxMixedDeadline(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	hook := &stallFromHook{delay: 25 * time.Millisecond}
	hook.stallFrom.Store(-1)
	// A bucket runs its members in order: sample order is execution order.
	sess := c.NewSession(SessionOptions{
		Hooks:     hook.hooks(),
		Admission: resilience.AdmissionConfig{MaxConcurrent: 2, MaxQueue: 2},
	})
	defer sess.Close(context.Background())

	b, _ := BuildModel("CodeBERT")
	samples := []Sample{NewSample(b, 64, 0.5, 1), NewSample(b, 64, 0.5, 2), NewSample(b, 64, 0.5, 3)}

	// Warm-up measures L, the launches of one inference at this shape,
	// so the stall can be aimed at the bucket's SECOND sample only.
	if _, _, err := sess.InferConcurrentCtx(context.Background(), samples[0].Inputs); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	perInfer := hook.launches.Load()
	if perInfer < 4 {
		t.Fatalf("model too small to aim a mid-batch stall (%d launches)", perInfer)
	}
	hook.stallFrom.Store(hook.launches.Load() + perInfer)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	results := sess.InferBucketCtx(ctx, samples)

	// Sample 0 ran un-stalled inside the deadline: full success.
	if results[0].Err != nil || results[0].Cancelled || len(results[0].Outputs) == 0 {
		t.Fatalf("in-time sample: %+v", results[0])
	}
	// Sample 1 hit the stall and must report ONLY the deadline — a
	// cancellation, never a model/plan error the breaker would count.
	r1 := results[1]
	if !r1.Cancelled || !errors.Is(r1.Err, context.DeadlineExceeded) {
		t.Fatalf("deadline sample: Cancelled=%v Err=%v, want Cancelled deadline", r1.Cancelled, r1.Err)
	}
	var oe *guard.OpError
	var ce *guard.ContractError
	if errors.As(r1.Err, &oe) || errors.As(r1.Err, &ce) {
		t.Fatalf("deadline surfaced as a model error: %v", r1.Err)
	}
	// Sample 2 was never dispatched: cancelled without executing.
	r2 := results[2]
	if !r2.Cancelled || r2.Outputs != nil {
		t.Fatalf("undispatched sample: %+v", r2)
	}
	launchesAfter := hook.launches.Load()
	if launchesAfter >= hook.stallFrom.Load()+perInfer {
		t.Fatalf("undispatched sample executed anyway (%d launches)", launchesAfter)
	}

	st := sess.Stats()
	if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
		t.Fatalf("admission leak after mixed-deadline bucket: %+v", st.Admission)
	}
	if st.Breaker.Faults != 0 {
		t.Fatalf("deadline expiry counted as plan fault: %+v", st.Breaker)
	}
}

// TestInferBucketCtxSingleAdmission pins the amortization the batching
// server is built on: a bucket of N samples consumes exactly ONE
// admission (one slot) and each member's outputs
// are bit-identical to a direct un-batched inference.
func TestInferBucketCtxSingleAdmission(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	sess := c.NewSession(SessionOptions{
		Admission: resilience.AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0},
	})
	defer sess.Close(context.Background())

	b, _ := BuildModel("CodeBERT")
	samples := workload.Fixed(b, 3, 64, 0.5, 42)
	refs := make([]map[string]*Tensor, len(samples))
	for i, s := range samples {
		out, _, err := c.Infer(s.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = out
	}

	results := sess.InferBucketCtx(context.Background(), samples)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
		for name, ref := range refs[i] {
			got := r.Outputs[name]
			if got == nil {
				t.Fatalf("member %d: missing output %q", i, name)
			}
			for j := range ref.F {
				if got.F[j] != ref.F[j] {
					t.Fatalf("member %d output %q[%d]: %v != %v (must be bit-identical)",
						i, name, j, got.F[j], ref.F[j])
				}
			}
		}
	}

	st := sess.Stats()
	if st.Buckets != 1 || st.BucketMembers != uint64(len(samples)) {
		t.Fatalf("bucket stats = %d/%d, want 1/%d", st.Buckets, st.BucketMembers, len(samples))
	}
	if st.Admission.Admitted != 1 {
		t.Fatalf("bucket consumed %d admissions, want 1", st.Admission.Admitted)
	}
	if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
		t.Fatalf("admission leak after bucket: %+v", st.Admission)
	}
	if st.Requests != uint64(len(samples)) {
		t.Fatalf("requests = %d, want %d (every member counted)", st.Requests, len(samples))
	}
}

// TestInferBucketCtxShedTyped: a bucket that cannot be admitted sheds
// every member with the same typed overload error, not a cancellation.
func TestInferBucketCtxShedTyped(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	hook := &stallFromHook{delay: 200 * time.Millisecond}
	hook.stallFrom.Store(0) // stall immediately: holds the only slot
	sess := c.NewSession(SessionOptions{
		Hooks:     hook.hooks(),
		Admission: resilience.AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0},
	})
	defer sess.Close(context.Background())

	b, _ := BuildModel("CodeBERT")
	sample := NewSample(b, 64, 0.5, 1)
	occupied := make(chan struct{})
	go func() {
		close(occupied)
		sess.InferConcurrentCtx(context.Background(), sample.Inputs)
	}()
	<-occupied
	time.Sleep(50 * time.Millisecond) // let the stalled request take the slot

	results := sess.InferBucketCtx(context.Background(), []Sample{sample, sample})
	hook.stallFrom.Store(-1) // un-stall the occupant so Close drains fast
	for i, r := range results {
		if !errors.Is(r.Err, ErrOverloaded) {
			t.Fatalf("member %d: err = %v, want ErrOverloaded", i, r.Err)
		}
		if r.Cancelled {
			t.Fatalf("member %d: shed misreported as cancellation", i)
		}
	}
}

// TestInferBucketCtxClosed: a bucket against a closed session fails
// every member with ErrClosed.
func TestInferBucketCtxClosed(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	sess := c.NewSession(SessionOptions{})
	if err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, _ := BuildModel("CodeBERT")
	results := sess.InferBucketCtx(context.Background(), []Sample{NewSample(b, 64, 0.5, 1)})
	if !errors.Is(results[0].Err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", results[0].Err)
	}
}

// TestFamilyKeyRegionSharing pins what makes cross-request batching
// work: every input set binding inside the verified region shares ONE
// family key (different concrete shapes included), and inputs that
// cannot be bound are unbucketable.
func TestFamilyKeyRegionSharing(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	sess := c.NewSession(SessionOptions{})
	defer sess.Close(context.Background())

	b, _ := BuildModel("CodeBERT")
	samples := workload.Samples(b, 4, 7)
	key0, proven0 := sess.FamilyKey(samples[0].Inputs)
	if key0 == "" || !proven0 {
		t.Fatalf("in-region inputs: key=%q proven=%v, want region key", key0, proven0)
	}
	for _, s := range samples[1:] {
		key, proven := sess.FamilyKey(s.Inputs)
		if key != key0 || !proven {
			t.Fatalf("region key not shared across the family: %q/%v vs %q", key, proven, key0)
		}
	}
	if key, proven := sess.FamilyKey(map[string]*Tensor{}); key != "" || proven {
		t.Fatalf("unbindable inputs must be unbucketable, got %q/%v", key, proven)
	}
}
