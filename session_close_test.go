package sod2

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/models"
	"repro/internal/tensor"
)

func closeFixture(t *testing.T, hooks *exec.Hooks) (*Session, map[string]*Tensor) {
	t.Helper()
	b, ok := models.Get("CodeBERT")
	if !ok {
		t.Fatal("CodeBERT not registered")
	}
	c, _, err := CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.NewSession(SessionOptions{Hooks: hooks})
	inputs := b.Inputs(tensor.NewRNG(1), b.MinSize, 0.5)
	return sess, inputs
}

func TestSessionCloseRejectsNewWork(t *testing.T) {
	sess, inputs := closeFixture(t, nil)
	if _, _, err := sess.InferConcurrentCtx(context.Background(), inputs); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.InferConcurrentCtx(context.Background(), inputs); !errors.Is(err, ErrClosed) {
		t.Errorf("infer after close: want ErrClosed, got %v", err)
	}
	res := sess.InferBucketCtx(context.Background(), []Sample{{Inputs: inputs}})
	if !errors.Is(res[0].Err, ErrClosed) {
		t.Errorf("bucket after close: want ErrClosed, got %v", res[0].Err)
	}
}

func TestSessionDoubleClose(t *testing.T) {
	sess, _ := closeFixture(t, nil)
	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("second close must be a clean no-op: %v", err)
	}
}

func TestSessionCloseDrainsInFlight(t *testing.T) {
	blocked := make(chan struct{})
	proceed := make(chan struct{})
	var first atomic.Bool
	hooks := &exec.Hooks{PreKernel: func(n *Node, in []*Tensor) error {
		if first.CompareAndSwap(false, true) {
			close(blocked)
			<-proceed
		}
		return nil
	}}
	sess, inputs := closeFixture(t, hooks)

	inferDone := make(chan error, 1)
	go func() {
		_, _, err := sess.InferConcurrentCtx(context.Background(), inputs)
		inferDone <- err
	}()
	select {
	case <-blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("request never reached its first kernel")
	}

	// Close with an already-expired deadline: the in-flight request is
	// reported, the session still refuses new work, the straggler keeps
	// running.
	expired, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := sess.Close(expired)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close past deadline: want DeadlineExceeded, got %v", err)
	}
	if _, _, err := sess.InferConcurrentCtx(context.Background(), inputs); !errors.Is(err, ErrClosed) {
		t.Errorf("session must be closed to new work even after a timed-out drain: %v", err)
	}

	// Release the straggler; a second Close now drains cleanly.
	close(proceed)
	if err := <-inferDone; err != nil {
		t.Fatalf("in-flight request must complete after Close: %v", err)
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("close after drain: %v", err)
	}
}

func TestSessionCloseWaitsForCompletion(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var first atomic.Bool
	hooks := &exec.Hooks{PreKernel: func(n *Node, in []*Tensor) error {
		if first.CompareAndSwap(false, true) {
			close(started)
			<-release
		}
		return nil
	}}
	sess, inputs := closeFixture(t, hooks)

	done := make(chan error, 1)
	go func() {
		_, _, err := sess.InferConcurrentCtx(context.Background(), inputs)
		done <- err
	}()
	<-started
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	// Close must block until the in-flight request drains; once it
	// returns, the request's result is immediately (or near-immediately)
	// available.
	if err := sess.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained request failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close returned but the in-flight request never finished")
	}
}
