package resilience

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// AdmissionConfig bounds how much concurrent work a session accepts.
// The zero value admits everything (no semaphore, no budget) so the
// controller can always be present without changing default behavior.
type AdmissionConfig struct {
	// MaxConcurrent caps requests executing at once (<= 0: unlimited).
	MaxConcurrent int
	// MaxQueue caps requests allowed to wait for a slot when the
	// semaphore is full; requests beyond it shed immediately with
	// ErrOverloaded. 0 means no queue: a full semaphore sheds.
	MaxQueue int
	// MemoryBudget caps the planned arena bytes reserved by admitted
	// requests (<= 0: unlimited). A request whose estimate does not fit
	// the remaining headroom sheds — unless nothing is reserved yet, in
	// which case it is admitted (a single estimate larger than the whole
	// budget must not become permanently inadmissible).
	MemoryBudget int64
}

// Admission is the serving-side overload gate: a concurrency semaphore
// with a bounded wait queue, plus a live reservation ledger of planned
// arena bytes checked against the configured budget. Requests that do
// not fit shed with a typed *OverloadError instead of queueing
// unboundedly. Safe for concurrent use.
type Admission struct {
	cfg   AdmissionConfig
	slots chan struct{} // nil when MaxConcurrent <= 0

	mu       sync.Mutex
	inflight int
	queued   int
	reserved int64

	admitted  atomic.Uint64
	shedConc  atomic.Uint64
	shedMem   atomic.Uint64
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

// Admit gates one request carrying an estimated arena footprint of
// estBytes (0 when unknown). On success it returns an idempotent
// release func the caller must invoke when the request finishes. On
// overload it returns an *OverloadError (errors.Is ErrOverloaded); if
// ctx ends while the request is queued it returns ctx's error.
func (a *Admission) Admit(ctx context.Context, estBytes int64) (func(), error) {
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
	if a.cfg.MemoryBudget > 0 && estBytes > 0 {
		a.mu.Lock()
		if a.reserved > 0 && a.reserved+estBytes > a.cfg.MemoryBudget {
			reserved, inflight := a.reserved, a.inflight
			a.mu.Unlock()
			if a.slots != nil {
				<-a.slots
			}
			a.shedMem.Add(1)
			return nil, &OverloadError{Resource: "memory", InFlight: inflight,
				ReservedBytes: reserved, WantBytes: estBytes, BudgetBytes: a.cfg.MemoryBudget}
		}
		a.reserved += estBytes
		a.mu.Unlock()
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
			if a.cfg.MemoryBudget > 0 && estBytes > 0 {
				a.reserved -= estBytes
			}
			a.mu.Unlock()
			if a.slots != nil {
				<-a.slots
			}
		})
	}, nil
}

// AdmissionStats snapshots the gate.
type AdmissionStats struct {
	// InFlight/Queued are the current admitted and waiting counts;
	// ReservedBytes is the live arena-byte reservation.
	InFlight, Queued int
	ReservedBytes    int64
	// Admitted counts requests that passed the gate; ShedConcurrency and
	// ShedMemory count typed sheds; Abandoned counts requests whose
	// context ended while queued.
	Admitted, ShedConcurrency, ShedMemory, Abandoned uint64
}

// Shed is the total requests refused by the gate.
func (s AdmissionStats) Shed() uint64 { return s.ShedConcurrency + s.ShedMemory }

// Stats snapshots the counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	inflight, queued, reserved := a.inflight, a.queued, a.reserved
	a.mu.Unlock()
	return AdmissionStats{
		InFlight:        inflight,
		Queued:          queued,
		ReservedBytes:   reserved,
		Admitted:        a.admitted.Load(),
		ShedConcurrency: a.shedConc.Load(),
		ShedMemory:      a.shedMem.Load(),
		Abandoned:       a.abandoned.Load(),
	}
}
