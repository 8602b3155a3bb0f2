package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/guard"
)

// --- Admission ---------------------------------------------------------

func TestAdmissionUnlimitedByDefault(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	var releases []func()
	for i := 0; i < 100; i++ {
		rel, err := a.Admit(context.Background())
		if err != nil {
			t.Fatalf("zero config must admit everything, got %v", err)
		}
		releases = append(releases, rel)
	}
	if got := a.Stats().InFlight; got != 100 {
		t.Fatalf("InFlight = %d, want 100", got)
	}
	for _, rel := range releases {
		rel()
	}
	if st := a.Stats(); st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("after release: %+v, want zero in-flight/queued", st)
	}
}

func TestAdmissionShedsOnConcurrency(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})
	rel1, err1 := a.Admit(context.Background())
	rel2, err2 := a.Admit(context.Background())
	if err1 != nil || err2 != nil {
		t.Fatalf("first two admits failed: %v %v", err1, err2)
	}
	_, err := a.Admit(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third admit: err = %v, want ErrOverloaded", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Resource != "concurrency" {
		t.Fatalf("err = %#v, want concurrency OverloadError", err)
	}
	rel1()
	rel1() // idempotent
	if rel3, err := a.Admit(context.Background()); err != nil {
		t.Fatalf("admit after release: %v", err)
	} else {
		rel3()
	}
	rel2()
	st := a.Stats()
	if st.ShedConcurrency != 1 || st.Admitted != 3 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 1 shed / 3 admitted / 0 in flight", st)
	}
}

func TestAdmissionBoundedQueue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	rel, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One request may wait; it admits once the slot frees.
	admitted := make(chan error, 1)
	go func() {
		rel2, err := a.Admit(context.Background())
		if err == nil {
			rel2()
		}
		admitted <- err
	}()
	// Wait until it is queued, then a third request must shed.
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never registered")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.Admit(context.Background()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow request: err = %v, want ErrOverloaded", err)
	}
	rel()
	if err := <-admitted; err != nil {
		t.Fatalf("queued request failed: %v", err)
	}
}

func TestAdmissionQueueAbandonedOnCancel(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	rel, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Admit(ctx)
		errc <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned admit: err = %v, want context.Canceled", err)
	}
	st := a.Stats()
	if st.Queued != 0 || st.Abandoned != 1 {
		t.Fatalf("stats = %+v, want 0 queued / 1 abandoned", st)
	}
}

// A release func frees its slot once, however often it is called: a
// second call must not hand out a slot another request still holds.
func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})
	relA, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	relB, err := a.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	relA()
	relA()
	if got := a.Stats().InFlight; got != 1 {
		t.Fatalf("InFlight after a double release = %d, want 1", got)
	}
	relC, err := a.Admit(context.Background())
	if err != nil {
		t.Fatalf("freed slot not reusable: %v", err)
	}
	var oe *OverloadError
	if _, err := a.Admit(context.Background()); !errors.As(err, &oe) {
		t.Fatalf("third concurrent admit: err = %v, want *OverloadError", err)
	}
	relB()
	relC()
	if st := a.Stats(); st.InFlight != 0 || st.Admitted != 3 || st.ShedConcurrency != 1 {
		t.Fatalf("stats = %+v, want 0 in flight, 3 admitted, 1 shed", st)
	}
}

// --- RetryPolicy -------------------------------------------------------

func TestRetryBackoffLadder(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 9}
	ms := time.Millisecond
	want := []time.Duration{1 * ms, 2 * ms, 4 * ms, 8 * ms, 16 * ms, 32 * ms, 50 * ms, 50 * ms}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	if (RetryPolicy{}).Attempts() != 1 {
		t.Error("zero policy must mean a single attempt")
	}
}

func TestRetryableClassification(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 3}
	opErr := &guard.OpError{Node: "n", Op: "MatMul", Cause: errors.New("boom")}
	cases := []struct {
		name string
		err  error
		tier guard.Tier
		want bool
	}{
		{"kernel fault on planned tier", opErr, guard.TierPlanned, true},
		{"kernel fault on dynamic tier", opErr, guard.TierDynamic, true},
		{"kernel fault on float32 tier", opErr, guard.TierFloat32, false},
		{"arena fault", fmt.Errorf("x: %w", exec.ErrArenaExhausted), guard.TierPlanned, true},
		{"numeric contract", &guard.ContractError{Kind: guard.KindNumeric}, guard.TierPlanned, true},
		{"bind contract", &guard.ContractError{Kind: guard.KindBind}, guard.TierPlanned, false},
		{"input contract", &guard.ContractError{Kind: guard.KindInput}, guard.TierPlanned, false},
		{"cancelled", fmt.Errorf("x: %w", context.Canceled), guard.TierPlanned, false},
		{"deadline", fmt.Errorf("x: %w", context.DeadlineExceeded), guard.TierPlanned, false},
		{"shed", &OverloadError{Resource: "concurrency"}, guard.TierPlanned, false},
		{"nil", nil, guard.TierPlanned, false},
	}
	for _, c := range cases {
		if got := p.Retryable(c.err, c.tier); got != c.want {
			t.Errorf("%s: Retryable = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSleepCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if SleepCtx(ctx, time.Minute) {
		t.Fatal("SleepCtx must abort on a cancelled context")
	}
	if !SleepCtx(context.Background(), 0) {
		t.Fatal("zero sleep on a live context must report completion")
	}
}

// --- Breaker -----------------------------------------------------------

// tripRecorder wires a breaker to a controllable re-verification.
type tripRecorder struct {
	mu    sync.Mutex
	calls int
	b     *Breaker
	pass  bool
	sync  chan struct{} // each onTrip sends one token after resolving
}

func (r *tripRecorder) onTrip() {
	r.mu.Lock()
	r.calls++
	pass := r.pass
	r.mu.Unlock()
	r.b.ReverifyDone(pass)
	r.sync <- struct{}{}
}

func newTripRecorder(pass bool) (*Breaker, *tripRecorder) {
	r := &tripRecorder{pass: pass, sync: make(chan struct{}, 16)}
	r.b = NewBreaker(r.onTrip)
	return r.b, r
}

// repeat calls f n times.
func repeat(n int, f func()) {
	for range n {
		f()
	}
}

func (r *tripRecorder) waitTrip(t *testing.T) {
	t.Helper()
	select {
	case <-r.sync:
	case <-time.After(5 * time.Second):
		t.Fatal("onTrip never fired")
	}
}

func TestBreakerFullHealingCycle(t *testing.T) {
	b, rec := newTripRecorder(true)

	if b.State() != Healthy || b.Advice() != ServePlanned {
		t.Fatal("new breaker must be healthy, planned serving")
	}
	b.OnFailure()
	if b.State() != Degraded {
		t.Fatalf("after 1 fault: %v, want degraded", b.State())
	}
	if b.Advice() != ServePlanned {
		t.Fatal("degraded must still serve planned")
	}
	repeat(tripFaults-2, b.OnFailure)
	if b.State() != Degraded || b.Stats().Trips != 0 {
		t.Fatalf("after %d faults: %v, want degraded and untripped", tripFaults-1, b.State())
	}
	b.OnFailure()
	rec.waitTrip(t)
	// Reverify passed → probation, dynamic serving.
	if st := b.State(); st != Probation {
		t.Fatalf("after trip + passing reverify: %v, want probation", st)
	}
	if b.Advice() != ServeDynamic {
		t.Fatal("probation must serve dynamic")
	}
	repeat(probationSuccesses-1, b.OnSuccess)
	if b.State() != Probation {
		t.Fatalf("after %d probation successes: %v, want probation", probationSuccesses-1, b.State())
	}
	b.OnSuccess()
	if b.State() != Healthy || b.Advice() != ServePlanned {
		t.Fatalf("after probation successes: %v, want healthy", b.State())
	}
	st := b.Stats()
	if st.Trips != 1 || st.ReverifyPass != 1 || st.Faults != tripFaults || st.Successes != probationSuccesses {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreakerDegradedRecoversWithoutTrip(t *testing.T) {
	b, _ := newTripRecorder(true)
	b.OnFailure()
	repeat(recoverSuccesses-1, b.OnSuccess)
	if b.State() != Degraded {
		t.Fatalf("state = %v after %d successes, want degraded", b.State(), recoverSuccesses-1)
	}
	b.OnSuccess()
	if b.State() != Healthy {
		t.Fatalf("state = %v, want healthy", b.State())
	}
	if b.Stats().Trips != 0 {
		t.Fatal("no trip expected")
	}
}

func TestBreakerFailedReverifyStaysQuarantinedAndRefires(t *testing.T) {
	b, rec := newTripRecorder(false)
	repeat(tripFaults, b.OnFailure)
	rec.waitTrip(t)
	if b.State() != Quarantined || b.Advice() != ServeDynamic {
		t.Fatalf("after failing reverify: %v, want quarantined + dynamic", b.State())
	}
	// Sustained faults while quarantined re-fire the re-verification.
	repeat(tripFaults, b.OnFailure)
	rec.waitTrip(t)
	rec.mu.Lock()
	calls := rec.calls
	rec.mu.Unlock()
	if calls != 2 {
		t.Fatalf("OnTrip calls = %d, want 2", calls)
	}
	// Now let it pass via sustained successes.
	rec.mu.Lock()
	rec.pass = true
	rec.mu.Unlock()
	repeat(probationSuccesses, b.OnSuccess)
	rec.waitTrip(t)
	if b.State() != Probation {
		t.Fatalf("state = %v, want probation after clean traffic earns a passing reverify", b.State())
	}
}

func TestBreakerProbationFaultReopens(t *testing.T) {
	b, rec := newTripRecorder(true)
	repeat(tripFaults, b.OnFailure)
	rec.waitTrip(t)
	if b.State() != Probation {
		t.Fatalf("state = %v, want probation", b.State())
	}
	b.OnSuccess()
	b.OnFailure() // probation fault → re-open
	rec.waitTrip(t)
	if got := b.Stats().Trips; got != 2 {
		t.Fatalf("trips = %d, want 2", got)
	}
	if b.State() != Probation { // second reverify passed again
		t.Fatalf("state = %v, want probation", b.State())
	}
}

func TestBreakerConcurrentRecording(t *testing.T) {
	b, rec := newTripRecorder(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if (g+i)%3 == 0 {
					b.OnFailure()
				} else {
					b.OnSuccess()
				}
				b.Advice()
			}
		}(g)
	}
	wg.Wait()
	st := b.Stats()
	if st.Faults+st.Successes != 8*200 {
		t.Fatalf("recorded %d outcomes, want %d", st.Faults+st.Successes, 8*200)
	}
	_ = rec
}

func TestHealthStateStrings(t *testing.T) {
	want := map[HealthState]string{
		Healthy: "healthy", Degraded: "degraded",
		Quarantined: "quarantined", Probation: "probation",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), s)
		}
	}
}
