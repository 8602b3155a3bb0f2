package sod2

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/resilience"
)

// CacheStats snapshots a compiled model's runtime-cache effectiveness
// (trace memo hit/miss counters and region-proof hits).
type CacheStats = frameworks.CacheStats

// Invalidate drops the compiled model's memoized runtime artifacts —
// the (sample, policy) trace memo and the static region proof (the next
// request re-proves it). Call it between experiments, and after mutating
// any compiled artifact in place. Cumulative hit/miss counters survive.
func (c *Compiled) Invalidate() { c.inner.Invalidate() }

// CacheStats snapshots the compiled model's cache counters.
func (c *Compiled) CacheStats() CacheStats { return c.inner.Stats() }

// SessionOptions configure a serving session.
type SessionOptions struct {
	// Hooks are threaded into every request's executor (fault injection,
	// tracing). The hooks are shared by all concurrent requests and must
	// be safe for concurrent use.
	Hooks *exec.Hooks

	// Admission bounds concurrent work: a request past the concurrency
	// semaphore's bounded queue sheds with ErrOverloaded instead of
	// queueing unboundedly. The zero value admits everything.
	Admission resilience.AdmissionConfig
	// Retry is the bounded retry/backoff ladder for transient execution
	// faults. Tier-aware: a request that already descended to the
	// float32 tier, the last rung, is never retried. The zero value never
	// retries.
	Retry resilience.RetryPolicy
	// RequestTimeout bounds each request end to end — admission wait,
	// every retry attempt, and backoff sleeps (0 = none). Per-call
	// contexts (InferConcurrentCtx, InferBucketCtx) compose with it;
	// whichever ends first cancels the request.
	RequestTimeout time.Duration
}

// Session is the concurrent serving facade over one compiled model: any
// number of goroutines may call InferConcurrentCtx and InferBucketCtx on
// one Session. The session owns the serving policies — admission gate,
// retry ladder, and the circuit breaker's health state — while the one
// piece of shape-dependent state, the region proof, lives on the shared
// Compiled, so several Sessions over one model share it (but each
// judges health on its own traffic).
//
// Self-healing: execution faults (contained kernel panics/errors, arena
// faults, numeric contract violations) feed the breaker. Enough
// consecutive faults trip it: the static region proof is invalidated,
// one re-verification runs in the background,
// and requests serve through the dynamic fallback tier (recorded as a
// KindQuarantine degradation) until the new proof passes and probation
// traffic stays clean — then planned/region serving resumes.
type Session struct {
	c       *Compiled
	gopts   GuardOptions
	timeout time.Duration

	adm   *resilience.Admission
	brk   *resilience.Breaker
	retry resilience.RetryPolicy

	mu     sync.Mutex
	closed bool
	active int           // requests between begin() and end()
	idle   chan struct{} // closed when active drops to 0 (lazily made by Close)

	requests atomic.Uint64
	retries  atomic.Uint64

	buckets       atomic.Uint64
	bucketMembers atomic.Uint64
}

// ErrClosed is returned by every inference entry point after Close has
// been called on the session (use errors.Is).
var ErrClosed = errors.New("sod2: session closed")

// begin admits one request into the session's in-flight set, refusing
// when the session is closed. Every admission must be paired with end().
func (s *Session) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.active++
	return nil
}

// end retires one request; the last one out signals a waiting Close.
func (s *Session) end() {
	s.mu.Lock()
	s.active--
	if s.active == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// Close shuts the session down gracefully: new requests are refused
// with ErrClosed immediately, and requests
// already admitted drain to completion bounded by ctx. If ctx ends
// first, Close returns ctx's error with the still-in-flight count — the
// session stays closed to new work and the stragglers keep running to
// completion under their own contexts. Idempotent and safe for
// concurrent use; later Closes wait for the same drain.
func (s *Session) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	var idle chan struct{}
	if s.active > 0 {
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle = s.idle
	}
	s.mu.Unlock()

	if idle != nil {
		select {
		case <-idle:
		case <-ctx.Done():
			s.mu.Lock()
			active := s.active
			s.mu.Unlock()
			return fmt.Errorf("sod2: close: %d request(s) still in flight: %w", active, ctx.Err())
		}
	}
	return nil
}

// NewSession builds a serving session over a compiled model.
func (c *Compiled) NewSession(opts SessionOptions) *Session {
	s := &Session{
		c:       c,
		gopts:   GuardOptions{Hooks: opts.Hooks},
		timeout: opts.RequestTimeout,
		adm:     resilience.NewAdmission(opts.Admission),
		retry:   opts.Retry,
	}
	// The circuit breaker drives the health state machine (healthy →
	// degraded → quarantined → probation → healthy). Its trip is plan
	// quarantine: drop the region proof the faulting requests were
	// served from, then force exactly one re-verification. Probation
	// serving starts only when the new proof passes; an unprovable
	// verdict keeps the model quarantined on the dynamic tier (safe,
	// just slower).
	s.brk = resilience.NewBreaker(func() {
		c.inner.Invalidate()
		rep := c.inner.Verify()
		s.brk.ReverifyDone(rep.Mem.Proven)
	})
	return s
}

// Health reports the model's current serving health as judged by this
// session's circuit breaker.
func (s *Session) Health() resilience.HealthState { return s.brk.State() }

// InferConcurrentCtx executes one set of inputs under the session's
// guard options, bounded by a context: cancellation is honored while
// queued for admission, between retry attempts, and between executed
// nodes (including inside If/Loop bodies). Safe to call from any number
// of goroutines; the returned Report carries the tier served, whether
// the region proof's plan served it (RegionCacheHit) and any
// degradations taken.
func (s *Session) InferConcurrentCtx(ctx context.Context, inputs map[string]*Tensor) (map[string]*Tensor, Report, error) {
	if err := s.begin(); err != nil {
		return nil, Report{}, err
	}
	defer s.end()
	s.requests.Add(1)
	return s.serve(ctx, inputs)
}

// serve is the resilient request path every inference goes through:
// deadline, admission, breaker-advised execution, tier-aware retries.
func (s *Session) serve(ctx context.Context, inputs map[string]*Tensor) (map[string]*Tensor, Report, error) {
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	// Admission: shed instead of queueing unboundedly.
	release, err := s.adm.Admit(ctx)
	if err != nil {
		return nil, Report{}, err
	}
	defer release()
	return s.serveAdmitted(ctx, inputs)
}

// serveAdmitted is the post-admission request path: breaker-advised
// execution with tier-aware retries. The caller holds the admission
// slot for the duration.
func (s *Session) serveAdmitted(ctx context.Context, inputs map[string]*Tensor) (map[string]*Tensor, Report, error) {
	for attempt := 1; ; attempt++ {
		gopts := s.gopts
		gopts.Ctx = ctx
		if s.brk.Advice() == resilience.ServeDynamic {
			// Quarantine/probation: the plan is distrusted until the
			// breaker closes — serve on the dynamic fallback tier.
			gopts.ForceDynamic = true
		}
		out, rep, err := s.c.infer(inputs, gopts)
		if err == nil {
			s.brk.OnSuccess()
			return out, rep, nil
		}
		// Cancellation, deadline expiry, and deterministic contract
		// verdicts are not plan faults; only execution faults count
		// against the breaker (and only those are worth retrying).
		if resilience.CountsAsFault(err) {
			s.brk.OnFailure()
		}
		if attempt >= s.retry.Attempts() || !s.retry.Retryable(err, rep.FallbackTier) {
			return nil, rep, err
		}
		s.retries.Add(1)
		if !resilience.SleepCtx(ctx, s.retry.Backoff(attempt)) {
			return nil, rep, fmt.Errorf("sod2: request expired during retry backoff (attempt %d, last error %v): %w",
				attempt, err, ctx.Err())
		}
	}
}

// BatchResult is one request's outcome within an InferBucketCtx bucket.
type BatchResult struct {
	// Index is the request's position in the submitted slice.
	Index int
	// Outputs are the inference outputs (nil on error).
	Outputs map[string]*Tensor
	// Report is the per-request latency/memory/cache report.
	Report Report
	// Err is the request's failure, if any (other requests proceed).
	Err error
	// Cancelled reports that Err is the bucket context ending (deadline
	// or cancellation) rather than a model or admission failure — the
	// sample itself was never refuted.
	Cancelled bool
}

// isCancellation classifies a request error as context-driven.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// FamilyKey returns the shape-family bucket key for one concrete input
// set, and whether that key is the statically proven region key. All
// requests whose inputs bind inside the verified region share a single
// key — the region proof *is* the shape family — so a cross-request
// batching layer can coalesce them even when their concrete shapes
// differ. Outside the region the key degrades to the concrete input
// shapes; an empty key means the inputs are incomplete and cannot be
// bucketed.
func (s *Session) FamilyKey(inputs map[string]*Tensor) (string, bool) {
	return s.c.inner.FamilyKey(inputs)
}

// InferBucketCtx executes one shape-family bucket of samples as a
// single coalesced unit of work: the bucket is admitted ONCE — one
// concurrency slot covers every member — and the members then execute
// sequentially against the shared verified plan, so at most one
// member's arena is live at a time. Admission cost amortizes across the
// bucket's clients; wall-clock parallelism comes from distinct buckets
// running concurrently.
//
// Results come back in submission order (Index is the position): a
// member failure records its error without affecting the rest, members
// not yet dispatched when ctx ends come back Cancelled, and a shed
// bucket sheds every member with the same typed error. The session's RequestTimeout bounds the
// whole bucket — the bucket is one request from the resilience layer's
// point of view.
func (s *Session) InferBucketCtx(ctx context.Context, samples []Sample) []BatchResult {
	results := make([]BatchResult, len(samples))
	if len(samples) == 0 {
		return results
	}
	fail := func(err error) []BatchResult {
		cancelled := isCancellation(err)
		for i := range results {
			results[i] = BatchResult{Index: i, Err: err, Cancelled: cancelled}
		}
		return results
	}
	if err := s.begin(); err != nil {
		return fail(err)
	}
	defer s.end()
	s.requests.Add(uint64(len(samples)))
	s.buckets.Add(1)
	s.bucketMembers.Add(uint64(len(samples)))
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	release, err := s.adm.Admit(ctx)
	if err != nil {
		return fail(err)
	}
	defer release()
	for i := range samples {
		if cerr := ctx.Err(); cerr != nil {
			results[i] = BatchResult{Index: i, Cancelled: true,
				Err: fmt.Errorf("sod2: bucket cancelled before member dispatch: %w", cerr)}
			continue
		}
		out, rep, err := s.serveAdmitted(ctx, samples[i].Inputs)
		results[i] = BatchResult{Index: i, Outputs: out, Report: rep, Err: err,
			Cancelled: isCancellation(err)}
	}
	return results
}

// SessionStats describes a session's request flow, the serving health
// the resilience layer maintains, and the shared model caches behind it.
type SessionStats struct {
	// Requests is the total number of requests submitted.
	Requests uint64
	// Coalesced counted sample-ID request coalescing, which is gone: it
	// reads 0 and stays declared only until the wall-clock benchmark's
	// next revision stops reading it.
	Coalesced uint64
	// Retries counts retry attempts taken by the bounded backoff ladder
	// (beyond first attempts).
	Retries uint64
	// Buckets counts coalesced shape-family buckets served via
	// InferBucketCtx, and BucketMembers the requests inside them (each
	// bucket consumed ONE admission for BucketMembers/Buckets requests
	// on average — the cross-request amortization ratio).
	Buckets, BucketMembers uint64
	// Health is the model's current health state (breaker-judged).
	Health resilience.HealthState
	// Breaker snapshots the circuit breaker: cumulative faults and
	// successes, trips, and re-verification outcomes.
	Breaker resilience.BreakerStats
	// Admission snapshots the overload gate: in-flight/queued counts and
	// shed counters.
	Admission resilience.AdmissionStats
	// Cache snapshots the shared Compiled's cache counters.
	Cache CacheStats
}

// Stats snapshots the session counters.
func (s *Session) Stats() SessionStats {
	bs := s.brk.Stats()
	return SessionStats{
		Requests:      s.requests.Load(),
		Retries:       s.retries.Load(),
		Buckets:       s.buckets.Load(),
		BucketMembers: s.bucketMembers.Load(),
		Health:        bs.State,
		Breaker:       bs,
		Admission:     s.adm.Stats(),
		Cache:         s.c.CacheStats(),
	}
}
