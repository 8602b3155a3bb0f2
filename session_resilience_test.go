package sod2

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// compileVerifiedModel compiles one evaluation model with the static
// verifier on (region serving enabled) for the resilience tests.
func compileVerifiedModel(t *testing.T, name string) *Compiled {
	t.Helper()
	b, err := BuildModel(name)
	if err != nil {
		t.Fatal(err)
	}
	c, rep, err := CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mem.Proven {
		t.Fatalf("%s: memory plan unproven (%s); resilience tests assume region serving", name, rep.Mem.Reason)
	}
	return c
}

// TestSessionDeadlineStall drives the deadline path end to end: a
// persistent slow-kernel stall longer than the request timeout must
// surface context.DeadlineExceeded — and expiry is not a plan fault, so
// the breaker must not count it.
func TestSessionDeadlineStall(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	inj := faultinject.New(faultinject.KernelStall, 0)
	inj.Repeat = true
	inj.Delay = 25 * time.Millisecond
	sess := c.NewSession(SessionOptions{
		Hooks:          inj.Hooks(),
		RequestTimeout: 5 * time.Millisecond,
	})
	b, _ := BuildModel("CodeBERT")
	sample := NewSample(b, 64, 0.5, 1)
	_, _, err := sess.InferConcurrent(sample.Inputs)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	st := sess.Stats()
	if st.Breaker.Faults != 0 {
		t.Fatalf("deadline expiry counted as a plan fault: %+v", st.Breaker)
	}
	if st.Health != resilience.Healthy {
		t.Fatalf("health = %v, want healthy", st.Health)
	}
}

// TestSessionRetryRecoversTransientFault pins the retry ladder: a
// one-shot kernel error fails the first attempt, the bounded retry
// re-runs, the one-shot fault does not re-fire, and the request
// succeeds. The fault is still recorded by the breaker (degraded), and
// clean traffic heals it back.
func TestSessionRetryRecoversTransientFault(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	inj := faultinject.New(faultinject.KernelError, 0)
	sess := c.NewSession(SessionOptions{
		Hooks: inj.Hooks(),
		Retry: resilience.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Microsecond},
		Breaker: resilience.BreakerConfig{
			TripThreshold: 5, RecoverSuccesses: 2,
		},
	})
	b, _ := BuildModel("CodeBERT")
	sample := NewSample(b, 64, 0.5, 2)
	out, _, err := sess.InferConcurrent(sample.Inputs)
	if err != nil {
		t.Fatalf("retry should have recovered the one-shot fault: %v", err)
	}
	if len(out) == 0 {
		t.Fatal("no outputs")
	}
	st := sess.Stats()
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
	if st.Breaker.Faults != 1 {
		t.Fatalf("breaker faults = %d, want 1 (the failed first attempt)", st.Breaker.Faults)
	}
	if st.Health != resilience.Degraded {
		t.Fatalf("health = %v, want degraded after one fault", st.Health)
	}
	// Clean traffic recovers degraded → healthy without a trip.
	for i := 0; i < 2; i++ {
		if _, _, err := sess.InferConcurrent(sample.Inputs); err != nil {
			t.Fatal(err)
		}
	}
	if st = sess.Stats(); st.Health != resilience.Healthy || st.Breaker.Trips != 0 {
		t.Fatalf("health = %v trips = %d, want healthy with no trips", st.Health, st.Breaker.Trips)
	}
}

// TestSessionReplanTierNotRetried pins the tier-awareness rule: a fault
// on a request that already degraded to the dynamic-replan tier is not
// retried — the replan was the recovery attempt.
func TestSessionReplanTierNotRetried(t *testing.T) {
	p := resilience.RetryPolicy{MaxAttempts: 3}
	if p.Retryable(&OpError{Op: "MatMul"}, TierReplan) {
		t.Fatal("replan-tier fault must not be retryable")
	}
	if !p.Retryable(&OpError{Op: "MatMul"}, TierPlanned) {
		t.Fatal("planned-tier kernel fault must be retryable")
	}
}

// TestSessionShedsWhenSaturated saturates a MaxConcurrent=1 session
// with a stalled request and asserts the next request sheds immediately
// with the typed overload error instead of queueing.
func TestSessionShedsWhenSaturated(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	inj := faultinject.New(faultinject.KernelStall, 0)
	inj.Repeat = true
	inj.Delay = 30 * time.Millisecond
	sess := c.NewSession(SessionOptions{
		Hooks:     inj.Hooks(),
		Admission: AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0},
	})
	b, _ := BuildModel("CodeBERT")
	sample := NewSample(b, 64, 0.5, 3)

	done := make(chan error, 1)
	go func() {
		_, _, err := sess.InferConcurrent(sample.Inputs)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sess.Stats().Admission.InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	_, _, err := sess.InferConcurrent(sample.Inputs)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated session: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Resource != "concurrency" {
		t.Fatalf("err = %#v, want concurrency OverloadError", err)
	}
	if took := time.Since(start); took > 20*time.Millisecond {
		t.Errorf("shed took %v; shedding must not queue behind the stall", took)
	}
	if err := <-done; err != nil {
		t.Fatalf("stalled request should still complete: %v", err)
	}
	st := sess.Stats()
	if st.Admission.ShedConcurrency != 1 || st.Admission.InFlight != 0 {
		t.Fatalf("admission stats = %+v", st.Admission)
	}
}

// TestInferBatchCtxCancellation pins that per-sample cancellation is
// reported distinctly from model errors, for both flavors: a request
// cancelled in flight (the executor's between-node context check) and a
// request cancelled before dispatch. A gate hook deterministically
// parks in-flight requests at their first kernel so the cancellation
// always lands mid-batch — no timing dependence.
func TestInferBatchCtxCancellation(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	var gateOn atomic.Bool
	gate := make(chan struct{})
	hooks := &exec.Hooks{PreKernel: func(_ *graph.Node, _ []*tensor.Tensor) error {
		if gateOn.Load() {
			<-gate
		}
		return nil
	}}
	sess := c.NewSession(SessionOptions{Workers: 2, Hooks: hooks})
	b, _ := BuildModel("CodeBERT")
	mkSamples := func(n, seed int) []Sample {
		samples := make([]Sample, n)
		for i := range samples {
			samples[i] = NewSample(b, 64, 0.5, uint64(seed+i))
		}
		return samples
	}

	// Un-cancelled batch: everything completes, nothing is cancelled.
	for _, r := range sess.InferBatch(mkSamples(4, 100)) {
		if r.Err != nil || r.Cancelled {
			t.Fatalf("clean batch sample %d: err=%v cancelled=%v", r.Index, r.Err, r.Cancelled)
		}
	}

	// Cancelled mid-batch: workers park at the gate, the context is
	// cancelled, the gate opens — in-flight requests abort at the next
	// node, undispatched ones are marked without running.
	gateOn.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for sess.Stats().Admission.InFlight < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		cancel()
		gateOn.Store(false)
		close(gate)
	}()
	results := sess.InferBatchCtx(ctx, mkSamples(8, 200))
	var cancelled, beforeDispatch int
	for _, r := range results {
		if r.Err == nil || !r.Cancelled {
			t.Fatalf("sample %d: err=%v cancelled=%v, want cancellation", r.Index, r.Err, r.Cancelled)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("sample %d: err = %v, does not unwrap to context.Canceled", r.Index, r.Err)
		}
		if r.Outputs != nil {
			t.Errorf("sample %d: cancelled result carries outputs", r.Index)
		}
		cancelled++
		if strings.Contains(r.Err.Error(), "before dispatch") {
			beforeDispatch++
		}
	}
	if cancelled != 8 {
		t.Fatalf("cancelled = %d, want all 8", cancelled)
	}
	if beforeDispatch == 0 {
		t.Error("no sample was marked cancelled-before-dispatch")
	}
	if beforeDispatch == 8 {
		t.Error("no sample observed in-flight cancellation")
	}
	// Cancellation is not a model fault: health stays clean.
	if st := sess.Stats(); st.Breaker.Faults != 0 || st.Health != resilience.Healthy {
		t.Fatalf("cancellations counted against health: %+v", st.Breaker)
	}
}

// TestSessionMemoryAdmission exercises the arena-headroom gate: with a
// proven region plan as the per-request estimate and a budget below two
// plans, a second concurrent request sheds with the typed memory
// overload error.
func TestSessionMemoryAdmission(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	est := c.inner.PlannedArenaBytes(GuardOptions{})
	if est <= 0 {
		t.Fatal("no planned arena estimate")
	}
	inj := faultinject.New(faultinject.KernelStall, 0)
	inj.Repeat = true
	inj.Delay = 30 * time.Millisecond
	sess := c.NewSession(SessionOptions{
		Hooks:     inj.Hooks(),
		Admission: AdmissionConfig{MemoryBudget: est + est/2},
	})
	b, _ := BuildModel("CodeBERT")
	sample := NewSample(b, 64, 0.5, 4)
	done := make(chan error, 1)
	go func() {
		_, _, err := sess.InferConcurrent(sample.Inputs)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sess.Stats().Admission.ReservedBytes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never reserved")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, err := sess.InferConcurrent(sample.Inputs)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Resource != "memory" {
		t.Fatalf("err = %v, want memory OverloadError", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := sess.Stats().Admission.ReservedBytes; got != 0 {
		t.Fatalf("leaked reservation: %d bytes", got)
	}
}

// TestSessionParallelAdmission: a Parallel session's request runs on the
// wave-widened layout, and its kept arena buffer grows to that layout's
// size, so admission must reserve the widened worst case — not the
// sequential plan's — while the request is in flight.
func TestSessionParallelAdmission(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	wave := c.Verify().Wave
	if !wave.Proven {
		t.Fatalf("CodeBERT wavefront plan unproven: %s", wave.Reason)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sess := c.NewSession(SessionOptions{
		Parallel: true,
		Hooks: &exec.Hooks{PreKernel: func(*graph.Node, []*tensor.Tensor) error {
			once.Do(func() { close(parked) })
			<-release
			return nil
		}},
		Admission: AdmissionConfig{MemoryBudget: 1 << 30},
	})
	b, _ := BuildModel("CodeBERT")
	done := make(chan Report, 1)
	go func() {
		_, rep, err := sess.InferConcurrent(NewSample(b, 64, 0.5, 4).Inputs)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	<-parked
	got := sess.Stats().Admission.ReservedBytes
	close(release)
	if rep := <-done; rep.Wavefronts == 0 {
		t.Fatalf("request ran sequentially (tier %v): the session must serve it wavefront-parallel", rep.FallbackTier)
	}
	if got != 4964352 || got != wave.ArenaSize {
		t.Errorf("in-flight reservation %d bytes, want the widened arena's 4964352 (proof: %d, sequential %d)",
			got, wave.ArenaSize, c.Verify().Mem.ArenaSize)
	}
	if got := sess.Stats().Admission.ReservedBytes; got != 0 {
		t.Fatalf("leaked reservation: %d bytes", got)
	}
}
