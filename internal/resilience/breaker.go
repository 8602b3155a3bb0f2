package resilience

import "sync"

// Breaker thresholds.
const (
	// tripFaults is the consecutive counted faults that open the
	// breaker. In Quarantined it is also the fault count that re-fires a
	// failed re-verification.
	tripFaults = 5
	// recoverSuccesses is the consecutive successes that return a
	// Degraded model to Healthy.
	recoverSuccesses = 3
	// probationSuccesses is the consecutive dynamic-tier successes that
	// close the breaker from Probation. In Quarantined with no
	// re-verification running (a previous one failed), the same count of
	// successes re-fires re-verification rather than closing — the plan
	// stays distrusted until a proof passes.
	probationSuccesses = 8
)

// Breaker is the per-model circuit breaker and health state machine:
//
//	healthy → degraded → quarantined → probation → healthy
//
// Faults (as classified by the caller — see CountsAsFault) move the
// model right; successes move it left. Opening the breaker fires the
// OnTrip hook once per trip, which re-verifies the plan in the
// background and calls ReverifyDone; while Quarantined or on Probation,
// Advice() tells the session to serve through the dynamic fallback
// tier. All methods are safe for concurrent use.
type Breaker struct {
	onTrip func()

	mu          sync.Mutex
	state       HealthState
	consecFail  int
	consecOK    int
	reverifying bool

	// Cumulative counters (guarded by mu).
	faults, successes          uint64
	trips                      uint64
	reverifies                 uint64
	reverifyPass, reverifyFail uint64
}

// NewBreaker builds a breaker in the Healthy state. onTrip is invoked on
// its own goroutine each time the breaker opens (or re-fires): it must
// quarantine the cached plan (invalidate + re-verify) and report the
// outcome via ReverifyDone.
func NewBreaker(onTrip func()) *Breaker { return &Breaker{onTrip: onTrip} }

// ServingAdvice is the breaker's instruction for the next request.
type ServingAdvice uint8

// Serving advice values.
const (
	// ServePlanned: normal serving — planned/region tier first.
	ServePlanned ServingAdvice = iota
	// ServeDynamic: the plan is quarantined or on probation — force the
	// dynamic fallback tier (no planned arena).
	ServeDynamic
)

// Advice reports how the next request should be served.
func (b *Breaker) Advice() ServingAdvice {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Quarantined || b.state == Probation {
		return ServeDynamic
	}
	return ServePlanned
}

// State returns the current health state.
func (b *Breaker) State() HealthState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// OnSuccess records one successfully served request.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	b.successes++
	b.consecFail = 0
	switch b.state {
	case Healthy:
		b.mu.Unlock()
		return
	case Degraded:
		b.consecOK++
		if b.consecOK >= recoverSuccesses {
			b.state = Healthy
			b.consecOK = 0
		}
		b.mu.Unlock()
		return
	case Probation:
		b.consecOK++
		if b.consecOK >= probationSuccesses {
			b.state = Healthy
			b.consecOK = 0
		}
		b.mu.Unlock()
		return
	case Quarantined:
		// Dynamic-tier traffic is succeeding, but the plan is still
		// distrusted. If no re-verification is running (the last one
		// failed), sustained clean traffic earns another attempt.
		b.consecOK++
		if !b.reverifying && b.consecOK >= probationSuccesses {
			b.consecOK = 0
			b.fireTripLocked()
			b.mu.Unlock()
			return
		}
	}
	b.mu.Unlock()
}

// OnFailure records one counted fault (the caller filters with
// CountsAsFault — cancellations and sheds must not reach here).
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	b.faults++
	b.consecOK = 0
	b.consecFail++
	switch b.state {
	case Healthy:
		b.state = Degraded
	case Degraded:
		if b.consecFail >= tripFaults {
			b.state = Quarantined
			b.trips++
			b.consecFail = 0
			b.fireTripLocked()
		}
	case Quarantined:
		// Already open. If the last re-verification failed (none
		// running), sustained faults re-fire it.
		if !b.reverifying && b.consecFail >= tripFaults {
			b.consecFail = 0
			b.fireTripLocked()
		}
	case Probation:
		// A fault on probation re-opens the breaker: the re-verified
		// plan is faulting too, so verify again.
		b.state = Quarantined
		b.trips++
		b.consecFail = 0
		b.fireTripLocked()
	}
	b.mu.Unlock()
}

// fireTripLocked launches one re-verification (mu held).
func (b *Breaker) fireTripLocked() {
	if b.reverifying {
		return
	}
	b.reverifying = true
	b.reverifies++
	go b.onTrip()
}

// ReverifyDone reports the outcome of the re-verification the onTrip
// hook ran: pass moves a Quarantined model to Probation; fail leaves it
// Quarantined (dynamic-tier serving continues, and further faults or
// sustained successes re-fire the hook).
func (b *Breaker) ReverifyDone(pass bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reverifying = false
	if pass {
		b.reverifyPass++
		if b.state == Quarantined {
			b.state = Probation
			b.consecOK = 0
		}
		return
	}
	b.reverifyFail++
	b.consecFail = 0
}

// BreakerStats snapshots the breaker.
type BreakerStats struct {
	// State is the current health state; ConsecutiveFaults the current
	// fault run length.
	State             HealthState
	ConsecutiveFaults int
	// ReverifyInFlight reports a background re-verification running.
	ReverifyInFlight bool
	// Faults/Successes are cumulative recorded outcomes; Trips counts
	// breaker openings; Reverifies counts re-verification launches with
	// their pass/fail split.
	Faults, Successes          uint64
	Trips                      uint64
	Reverifies                 uint64
	ReverifyPass, ReverifyFail uint64
}

// Stats snapshots the counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStats{
		State:             b.state,
		ConsecutiveFaults: b.consecFail,
		ReverifyInFlight:  b.reverifying,
		Faults:            b.faults,
		Successes:         b.successes,
		Trips:             b.trips,
		Reverifies:        b.reverifies,
		ReverifyPass:      b.reverifyPass,
		ReverifyFail:      b.reverifyFail,
	}
}
