package resilience

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// AdmissionConfig bounds how much concurrent work a session accepts.
// The zero value admits everything (no semaphore) so the controller can
// always be present without changing default behavior.
type AdmissionConfig struct {
	// MaxConcurrent caps requests executing at once (<= 0: unlimited).
	MaxConcurrent int
	// MaxQueue caps requests allowed to wait for a slot when the
	// semaphore is full; requests beyond it shed immediately with
	// ErrOverloaded. 0 means no queue: a full semaphore sheds.
	MaxQueue int
}

// Admission is the serving-side overload gate: a concurrency semaphore
// with a bounded wait queue. Requests that do not fit shed with a typed
// *OverloadError instead of queueing unboundedly. Safe for concurrent
// use.
type Admission struct {
	cfg   AdmissionConfig
	slots chan struct{} // nil when MaxConcurrent <= 0

	mu       sync.Mutex
	inflight int
	queued   int

	admitted  atomic.Uint64
	shedConc  atomic.Uint64
	abandoned atomic.Uint64
}

// NewAdmission builds the gate for a config.
func NewAdmission(cfg AdmissionConfig) *Admission {
	a := &Admission{cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		a.slots = make(chan struct{}, cfg.MaxConcurrent)
	}
	return a
}

// Admit gates one request. On success it returns an idempotent release
// func the caller must invoke when the request finishes. On overload it
// returns an *OverloadError (errors.Is ErrOverloaded); if ctx ends while
// the request is queued it returns ctx's error.
func (a *Admission) Admit(ctx context.Context) (func(), error) {
	if a.slots != nil {
		select {
		case a.slots <- struct{}{}:
		default:
			// Semaphore full: wait only if the bounded queue has room.
			a.mu.Lock()
			if a.queued >= a.cfg.MaxQueue {
				inflight, queued := a.inflight, a.queued
				a.mu.Unlock()
				a.shedConc.Add(1)
				return nil, &OverloadError{Resource: "concurrency", InFlight: inflight, Queued: queued}
			}
			a.queued++
			a.mu.Unlock()
			select {
			case a.slots <- struct{}{}:
				a.mu.Lock()
				a.queued--
				a.mu.Unlock()
			case <-ctx.Done():
				a.mu.Lock()
				a.queued--
				a.mu.Unlock()
				a.abandoned.Add(1)
				return nil, fmt.Errorf("resilience: abandoned admission queue: %w", ctx.Err())
			}
		}
	}
	a.mu.Lock()
	a.inflight++
	a.mu.Unlock()
	a.admitted.Add(1)

	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			a.inflight--
			a.mu.Unlock()
			if a.slots != nil {
				<-a.slots
			}
		})
	}, nil
}

// AdmissionStats snapshots the gate.
type AdmissionStats struct {
	// InFlight/Queued are the current admitted and waiting counts.
	InFlight, Queued int
	// Admitted counts requests that passed the gate; ShedConcurrency
	// counts typed sheds; Abandoned counts requests whose context ended
	// while queued.
	Admitted, ShedConcurrency, Abandoned uint64
}

// Shed is the total requests refused by the gate.
func (s AdmissionStats) Shed() uint64 { return s.ShedConcurrency }

// Stats snapshots the counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	inflight, queued := a.inflight, a.queued
	a.mu.Unlock()
	return AdmissionStats{
		InFlight:        inflight,
		Queued:          queued,
		Admitted:        a.admitted.Load(),
		ShedConcurrency: a.shedConc.Load(),
		Abandoned:       a.abandoned.Load(),
	}
}
