package sod2

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/guard"
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
	_, _, err := sess.InferConcurrentCtx(context.Background(), sample.Inputs)
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
// three clean runs heal it back: the successful retry is the first.
func TestSessionRetryRecoversTransientFault(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	inj := faultinject.New(faultinject.KernelError, 0)
	sess := c.NewSession(SessionOptions{
		Hooks: inj.Hooks(),
		Retry: resilience.RetryPolicy{MaxAttempts: 2},
	})
	b, _ := BuildModel("CodeBERT")
	sample := NewSample(b, 64, 0.5, 2)
	out, _, err := sess.InferConcurrentCtx(context.Background(), sample.Inputs)
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
	// Clean traffic recovers degraded → healthy without a trip: the
	// retry and one more clean request do not, the next one does.
	for i := 0; i < 2; i++ {
		if st = sess.Stats(); st.Health != resilience.Degraded {
			t.Fatalf("health = %v after %d clean requests, want degraded", st.Health, i)
		}
		if _, _, err := sess.InferConcurrentCtx(context.Background(), sample.Inputs); err != nil {
			t.Fatal(err)
		}
	}
	if st = sess.Stats(); st.Health != resilience.Healthy || st.Breaker.Trips != 0 {
		t.Fatalf("health = %v trips = %d, want healthy with no trips", st.Health, st.Breaker.Trips)
	}
}

// TestSessionFloat32TierNotRetried pins the tier-awareness rule: a fault
// on a request that already descended to the float32 tier, the last
// rung, is not retried — that rung was the recovery attempt.
func TestSessionFloat32TierNotRetried(t *testing.T) {
	p := resilience.RetryPolicy{MaxAttempts: 3}
	if p.Retryable(&OpError{Op: "MatMul"}, TierFloat32) {
		t.Fatal("float32-tier fault must not be retryable")
	}
	if !p.Retryable(&OpError{Op: "MatMul"}, TierPlanned) {
		t.Fatal("planned-tier kernel fault must be retryable")
	}
	if !p.Retryable(&OpError{Op: "MatMul"}, TierDynamic) {
		t.Fatal("dynamic-tier kernel fault must be retryable")
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
		_, _, err := sess.InferConcurrentCtx(context.Background(), sample.Inputs)
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
	_, _, err := sess.InferConcurrentCtx(context.Background(), sample.Inputs)
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

// TestInferBatchCtxCancellation pins that per-sample cancellation in an
// InferBucketCtx bucket is reported distinctly from model errors, for
// both flavors: a member cancelled in flight (the executor's between-node
// context check) and members cancelled before dispatch. A gate hook
// deterministically parks the first member at its first kernel so the
// cancellation always lands mid-bucket — no timing dependence.
func TestInferBatchCtxCancellation(t *testing.T) {
	c := compileVerifiedModel(t, "CodeBERT")
	var gateOn atomic.Bool
	gate, parked := make(chan struct{}), make(chan struct{})
	var parkOnce sync.Once
	hooks := &exec.Hooks{PreKernel: func(_ *graph.Node, _ []*tensor.Tensor) error {
		if gateOn.Load() {
			parkOnce.Do(func() { close(parked) })
			<-gate
		}
		return nil
	}}
	sess := c.NewSession(SessionOptions{Hooks: hooks})
	b, _ := BuildModel("CodeBERT")
	mkSamples := func(n, seed int) []Sample {
		samples := make([]Sample, n)
		for i := range samples {
			samples[i] = NewSample(b, 64, 0.5, uint64(seed+i))
		}
		return samples
	}

	// Un-cancelled bucket: everything completes, nothing is cancelled.
	for _, r := range sess.InferBucketCtx(context.Background(), mkSamples(4, 100)) {
		if r.Err != nil || r.Cancelled {
			t.Fatalf("clean bucket sample %d: err=%v cancelled=%v", r.Index, r.Err, r.Cancelled)
		}
	}

	// Cancelled mid-bucket: the first member parks at the gate, the
	// context is cancelled, the gate opens — the in-flight member aborts
	// at the next node, undispatched ones are marked without running.
	gateOn.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		select {
		case <-parked:
		case <-time.After(5 * time.Second):
		}
		cancel()
		gateOn.Store(false)
		close(gate)
	}()
	results := sess.InferBucketCtx(ctx, mkSamples(8, 200))
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
		if strings.Contains(r.Err.Error(), "before member dispatch") {
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

// zeroExtentInputs copies inputs with the model's first symbolic input
// extent set to 0 in every input that declares it — or, for a model with
// fixed input shapes, the first input's last extent: a well-formed
// request for an empty tensor.
func zeroExtentInputs(g *Graph, inputs map[string]*Tensor) map[string]*Tensor {
	sym := ""
	for _, in := range g.Inputs {
		for _, d := range in.Shape.Dims {
			if d.IsSymbolic() && sym == "" {
				sym = d.String()
			}
		}
	}
	out := map[string]*Tensor{}
	for k, in := range g.Inputs {
		x := inputs[in.Name]
		shape := slices.Clone(x.Shape)
		for i, d := range in.Shape.Dims {
			if d.IsSymbolic() && d.String() == sym {
				shape[i] = 0
			}
		}
		if sym == "" && k == 0 {
			shape[len(shape)-1] = 0
		}
		if slices.Contains(shape, 0) {
			x = tensor.New(x.DType, shape...)
		}
		out[in.Name] = x
	}
	return out
}

// TestZeroExtentRefusedNotFaulted: a request with an empty input tensor
// is one no tier can serve. It is refused as an input violation before
// any rung runs, so it never reaches a kernel, never counts against the
// plan, and leaves the model healthy however often it is sent.
func TestZeroExtentRefusedNotFaulted(t *testing.T) {
	for _, b := range Models() {
		t.Run(b.Name, func(t *testing.T) {
			c, err := Compile(b)
			if err != nil {
				t.Fatal(err)
			}
			sess := c.NewSession(SessionOptions{})
			inputs := zeroExtentInputs(c.Graph(), NewSample(b, b.MinSize, 0.5, 1).Inputs)
			for i := 0; i < 10; i++ {
				_, _, err := sess.InferConcurrentCtx(context.Background(), inputs)
				var ce *ContractError
				if !errors.Is(err, ErrContract) || !errors.As(err, &ce) || ce.Kind != guard.KindInput {
					t.Fatalf("request %d: err %v, want an input contract violation", i, err)
				}
				if !strings.Contains(ce.Detail, "zero extent") {
					t.Errorf("request %d: violation should name the empty dimension: %v", i, err)
				}
			}
			if st := sess.Stats(); st.Breaker.Faults != 0 || st.Health != resilience.Healthy {
				t.Fatalf("empty requests counted against the plan: health %v, breaker %+v", st.Health, st.Breaker)
			}
		})
	}
}
