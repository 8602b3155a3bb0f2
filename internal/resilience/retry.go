package resilience

import (
	"context"
	"time"

	"repro/internal/guard"
)

// Retry backoff ladder: the sleep before the first retry, doubled for
// each further retry up to the cap.
const (
	baseBackoff = time.Millisecond
	maxBackoff  = 50 * time.Millisecond
)

// RetryPolicy is a bounded retry/backoff ladder for transient execution
// faults. The zero value never retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (<= 1: no retries).
	MaxAttempts int
}

// Attempts normalizes MaxAttempts.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the sleep before retrying after the attempt-th try
// (attempt is 1-based: the first retry follows attempt 1).
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := baseBackoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// Retryable reports whether a failed attempt may be retried. Two rules
// beyond fault classification:
//
//   - tier-awareness: a request that already descended to the float32
//     tier, the last rung, is never retried — that rung was itself the
//     recovery attempt, and its failure is not transient;
//   - only execution faults retry (CountsAsFault): deterministic
//     contract verdicts, cancellation, and sheds would fail identically.
func (p RetryPolicy) Retryable(err error, tier guard.Tier) bool {
	if tier >= guard.TierFloat32 {
		return false
	}
	return CountsAsFault(err)
}

// SleepCtx sleeps d or until ctx ends, reporting whether the full sleep
// completed.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
