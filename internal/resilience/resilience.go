// Package resilience closes the loop from fault to policy to recovery
// for the serving layer. The guarded executor (internal/frameworks)
// contains faults *per request* — panic containment, fallback tiers,
// contract checks — but on its own the serving session never learns
// from them: a model whose verified plan keeps faulting is re-tried
// from scratch on every request, there is no overload shedding, and no
// request deadline. This package supplies the
// three policies the session composes:
//
//   - Admission: a concurrency semaphore with a bounded wait queue.
//     Requests past capacity shed with a typed ErrOverloaded instead
//     of queueing unboundedly.
//   - RetryPolicy: a bounded retry/backoff ladder that is
//     fallback-tier-aware — a request that already descended to the
//     float32 tier, the last rung, is never retried (that rung *was*
//     the retry), and deterministic contract verdicts are never retried.
//   - Breaker: a per-model circuit breaker driving the health state
//     machine healthy → degraded → quarantined → probation → healthy.
//     Repeated execution faults trip the breaker, which quarantines
//     the cached plan (the session invalidates it and forces one
//     background re-verification) and serves traffic through the
//     dynamic fallback tier until the new proof passes and probation
//     traffic stays clean.
//
// All three are independent of the model/session types; the session
// wires them to the compiled artifact's Invalidate/Verify hooks.
package resilience

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/guard"
)

// HealthState is a model's serving health as seen by the circuit
// breaker. The zero value is Healthy.
type HealthState uint8

// Health states, in the order the self-healing cycle traverses them.
const (
	// Healthy: planned/region serving, no recent faults.
	Healthy HealthState = iota
	// Degraded: faults observed but below the trip threshold; serving
	// is unchanged, the breaker is counting.
	Degraded
	// Quarantined: the breaker tripped. The cached plan and proof are
	// invalidated, one background re-verification is (or will be)
	// running, and requests serve on the dynamic fallback tier.
	Quarantined
	// Probation: re-verification passed; requests still serve on the
	// dynamic tier until enough consecutive successes close the breaker.
	Probation
)

// String names the state for stats and logs.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Probation:
		return "probation"
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// MarshalJSON serializes the state as its string name so wire-level
// stats (/statsz) read "healthy", not an opaque ordinal.
func (h HealthState) MarshalJSON() ([]byte, error) {
	return json.Marshal(h.String())
}

// UnmarshalJSON parses the string name back (wire-stats round trip).
func (h *HealthState) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for _, s := range []HealthState{Healthy, Degraded, Quarantined, Probation} {
		if s.String() == name {
			*h = s
			return nil
		}
	}
	return fmt.Errorf("resilience: unknown health state %q", name)
}

// ErrOverloaded is the class of admission sheds (use errors.Is). The
// concrete error is an *OverloadError naming the exhausted resource.
var ErrOverloaded = errors.New("resilience: overloaded")

// OverloadError reports one shed request: which admission resource was
// exhausted and the load at the time.
type OverloadError struct {
	// Resource is "concurrency" (semaphore + queue full).
	Resource string
	// InFlight and Queued are the admitted/waiting request counts at
	// shed time.
	InFlight, Queued int
}

// Error renders the shed.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("resilience: overloaded [%s]: %d in flight, %d queued",
		e.Resource, e.InFlight, e.Queued)
}

// Is makes errors.Is(err, ErrOverloaded) match any OverloadError.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// CountsAsFault reports whether err is an execution fault the circuit
// breaker should count against the model's plan: contained kernel
// panics and kernel errors (*guard.OpError), arena faults (plan vs
// runtime disagreement), and numeric or memory-plan contract
// violations. Cancellation, deadline expiry, admission sheds, and
// deterministic input-side contract verdicts are not plan faults.
func CountsAsFault(err error) bool {
	if err == nil ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrOverloaded) {
		return false
	}
	var oe *guard.OpError
	if errors.As(err, &oe) {
		return true
	}
	if exec.IsArenaFault(err) {
		return true
	}
	var ce *guard.ContractError
	if errors.As(err, &ce) {
		return ce.Kind == guard.KindNumeric || ce.Kind == guard.KindMemPlan
	}
	return false
}
