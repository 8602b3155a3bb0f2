package sod2

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	"repro/internal/workload"
)

// soakStructured reports whether a phase-1 outcome is one the resilient
// session is contracted to produce under persistent faults: a contained
// kernel fault, a typed admission shed, or a context expiry — never an
// unstructured error (and never a panic; the harness would crash).
func soakStructured(err error) bool {
	var oe *guard.OpError
	return errors.As(err, &oe) || errors.Is(err, ErrOverloaded) || isCancellation(err)
}

// TestSoakSelfHealing drives concurrent traffic over the evaluation
// models with persistent fault injection, then stops the faults and
// asserts the serving layer heals itself:
//
//   - under faults, every request sheds or fails fast with a typed error
//     within the request deadline — no unbounded queueing, no hang;
//   - the circuit breaker trips, quarantining the plan (cached plans and
//     the region proof invalidated, re-verification in the background);
//   - after the faults stop, within a bounded number of requests the
//     health state returns to healthy, region-cache-hit serving resumes,
//     and outputs match the pre-fault reference;
//   - nothing leaks: no in-flight admissions, no reserved arena bytes,
//     no queued requests, no stray goroutines.
//
// CI runs it under -race; -short reduces the model and request counts.
func TestSoakSelfHealing(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()

	builders := Models()
	phase1PerWorker := 8
	if testing.Short() {
		builders = builders[:3]
		phase1PerWorker = 4
	}
	const workers = 8
	const healBudget = 100 // max phase-2 requests to reach healthy again

	for _, b := range builders {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			c, vrep, err := CompileVerified(b)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if !vrep.Mem.Proven {
				t.Fatalf("memory plan unproven (%s); soak assumes region serving", vrep.Mem.Reason)
			}

			// Persistent fault: while enabled, every kernel launch fails.
			var faultsOn atomic.Bool
			hooks := &exec.Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
				if faultsOn.Load() {
					return fmt.Errorf("%w: soak kernel fault at %s", faultinject.ErrInjected, n.Name)
				}
				return nil
			}}

			samples := workload.Fixed(b, 4, b.MinSize, 0.5, 42)
			// The deadline scales with the host and the race detector: a
			// multiple of one clean inference that also re-proves the
			// region, the slowest path a post-fault request can take.
			c.Invalidate()
			start := time.Now()
			if _, _, err := c.Infer(samples[0].Inputs); err != nil {
				t.Fatalf("clean inference: %v", err)
			}
			timeout := 50 * time.Since(start)
			sess := c.NewSession(SessionOptions{
				Hooks:          hooks,
				Admission:      AdmissionConfig{MaxConcurrent: 4, MaxQueue: 2},
				Retry:          RetryPolicy{MaxAttempts: 2},
				RequestTimeout: timeout,
			})

			// Phase 0: clean serving, region fast path on, and a reference
			// output to compare post-healing results against.
			refOut, rep, err := sess.InferConcurrentCtx(context.Background(), samples[0].Inputs)
			if err != nil {
				t.Fatalf("clean request: %v", err)
			}
			if !rep.RegionCacheHit {
				t.Fatalf("clean request not served by the region plan: %+v", rep)
			}

			// Phase 1: persistent faults under concurrent traffic.
			faultsOn.Store(true)
			var wg sync.WaitGroup
			var worstLatency atomic.Int64
			errCh := make(chan error, workers*phase1PerWorker)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < phase1PerWorker; i++ {
						start := time.Now()
						_, _, err := sess.InferConcurrentCtx(context.Background(), samples[(w+i)%len(samples)].Inputs)
						if d := int64(time.Since(start)); d > worstLatency.Load() {
							worstLatency.Store(d)
						}
						errCh <- err
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			var shed, faulted int
			for err := range errCh {
				switch {
				case err == nil:
					t.Fatal("request succeeded while every kernel launch faults")
				case !soakStructured(err):
					t.Fatalf("unstructured error under faults: %v", err)
				case errors.Is(err, ErrOverloaded):
					shed++
				default:
					faulted++
				}
			}
			if faulted == 0 {
				t.Fatal("no request reached execution; the fault phase proved nothing")
			}
			// Fail fast: the worst request (including its retry and
			// backoff) stayed within the deadline rather than hanging.
			if worst := time.Duration(worstLatency.Load()); worst > timeout {
				t.Errorf("worst request took %v, past the %v deadline", worst, timeout)
			}
			st := sess.Stats()
			if st.Breaker.Trips == 0 {
				t.Fatalf("sustained faults never tripped the breaker: %+v", st.Breaker)
			}
			if st.Health == resilience.Healthy {
				t.Fatalf("health still %v after %d faults", st.Health, st.Breaker.Faults)
			}
			if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
				t.Fatalf("admission leaked across phase 1: %+v", st.Admission)
			}

			// Phase 2: faults stop; the session must heal itself. Early
			// requests serve on the quarantined/probation dynamic tier,
			// the background re-verification restores the proof, and
			// within the heal budget planned region serving resumes.
			faultsOn.Store(false)
			healed := false
			sawQuarantineTier := false
			for i := 0; i < healBudget; i++ {
				out, rep, err := sess.InferConcurrentCtx(context.Background(), samples[0].Inputs)
				if err != nil {
					t.Fatalf("post-fault request %d failed: %v", i, err)
				}
				for _, d := range rep.Degradations {
					if d.Kind == guard.KindQuarantine {
						sawQuarantineTier = true
					}
				}
				if sess.Health() == resilience.Healthy && rep.RegionCacheHit {
					for name, want := range refOut {
						if got := out[name]; got == nil || !tensor.AllClose(got, want, 1e-5) {
							t.Fatalf("healed output %q diverges from pre-fault reference", name)
						}
					}
					healed = true
					break
				}
			}
			if !healed {
				t.Fatalf("session did not heal within %d requests: health=%v stats=%+v",
					healBudget, sess.Health(), sess.Stats().Breaker)
			}
			if !sawQuarantineTier {
				t.Error("no post-fault request recorded quarantined (forced-dynamic) serving")
			}
			st = sess.Stats()
			if st.Breaker.ReverifyPass == 0 {
				t.Fatalf("healing without a passing re-verification: %+v", st.Breaker)
			}
			if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
				t.Fatalf("admission leaked: %+v", st.Admission)
			}
		})
	}

	// No goroutine leaks: background re-verifications and batch workers
	// must all have exited (allow scheduler slack).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: started with %d, ended with %d",
				baseGoroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
