package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resilience"
	"repro/internal/tensor"

	sod2 "repro"
)

// chaosModels are the models the wire soak serves side by side: a
// shape-dynamic text model and two control-flow image models, so the
// adversarial traffic crosses genuinely different plan shapes.
var chaosModels = []string{"CodeBERT", "SkipNet", "DGNet"}

// TestWireChaosSoak is the wire-level counterpart of the execution
// chaos suite: a real TCP server over several models, attacked
// concurrently with slow-loris headers, truncated / oversized /
// malformed bodies, mid-stream disconnects, and stalled readers,
// interleaved with well-formed traffic. It asserts the robustness
// contract end to end:
//
//   - every refusal is a typed HTTP status (400/404/408/413/429/503,
//     plus 200 for good traffic) — no hangs, no untyped failures;
//   - well-formed requests keep succeeding throughout the attack, and
//     coalesced batch members return bit-identical outputs;
//   - SIGTERM-style drain flips /readyz, flushes buckets, closes
//     sessions; after shutdown no goroutines and no admission
//     reservations (ledger bytes, in-flight slots, queue) leak.
//
// CI runs it under -race; -short drops to one model and fewer rounds.
func TestWireChaosSoak(t *testing.T) {
	names := chaosModels
	rounds := 4
	if testing.Short() {
		names = names[:1]
		rounds = 2
	}

	type served struct {
		name string
		c    *sod2.Compiled
		sess *sod2.Session
	}
	var ms []served
	var models []Model
	for _, name := range names {
		c := compileModel(t, name)
		sess := c.NewSession(sod2.SessionOptions{
			Admission: resilience.AdmissionConfig{MaxConcurrent: 4, MaxQueue: 8},
		})
		ms = append(ms, served{name, c, sess})
		models = append(models, Model{Name: name, Compiled: c, Session: sess})
	}

	baseGoroutines := runtime.NumGoroutine()

	srv, err := New(models, Config{
		Batch:        BatchConfig{Window: 2 * time.Millisecond, MaxBatch: 4},
		Quota:        QuotaConfig{RatePerSec: 1000, Burst: 1000},
		MaxBodyBytes: 1 << 20,
		MaxDeadline:  5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.HTTPServer("")
	// Tight header timeout so slow-loris resolves within the test
	// budget instead of the production 5s. Read/write timeouts stay
	// generous: under -race with chaos contention a legitimate response
	// can take seconds, and cutting it would be a test artifact.
	hs.ReadHeaderTimeout = 300 * time.Millisecond
	hs.ReadTimeout = 15 * time.Second
	hs.WriteTimeout = 15 * time.Second
	serveDone := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(serveDone)
	}()
	addr := ln.Addr().String()
	base := "http://" + addr

	allowed := map[int]bool{200: true, 400: true, 404: true, 408: true, 413: true, 429: true, 503: true}
	var mu sync.Mutex
	var violations []string
	observe := func(who string, res *faultinject.WireResult) {
		if res.StatusCode == 0 {
			// Connection cut without a response: legal only for faults
			// the server is *supposed* to kill at the transport (slow
			// loris, aborted uploads) — readStatus tolerates it, and
			// the typed-status check below skips it.
			return
		}
		if !allowed[res.StatusCode] {
			mu.Lock()
			violations = append(violations, fmt.Sprintf("%s: untyped status %d", who, res.StatusCode))
			mu.Unlock()
		}
	}

	goodBody := func(m served, seed uint64) []byte {
		b, err := sod2.BuildModel(m.name)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(EncodeInputs(sod2.NewSample(b, 64, 0.5, seed).Inputs))
		return body
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < len(ms); w++ {
		m := ms[w%len(ms)]
		path := "/v1/models/" + m.name + "/infer"
		spath := path + "/stream"
		body := goodBody(m, uint64(100+w))

		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				observe("slow-loris", faultinject.SlowLorisHeaders(ctx, addr, path, 20*time.Millisecond))
				observe("truncated", faultinject.TruncatedBody(ctx, addr, path, body, len(body)/2))
				observe("oversized", faultinject.OversizedBody(ctx, addr, path, 3<<20))
				observe("malformed", faultinject.MalformedBody(ctx, addr, path, []byte(`{"inputs": {{{`)))
				observe("midstream", faultinject.MidStreamDisconnect(ctx, addr, spath, body, 32))
				observe("stalled-reader", faultinject.StalledReader(ctx, addr, path, body, 150*time.Millisecond))
			}
		}(w)

		// Good traffic interleaved with the attack: it must keep
		// succeeding (or shed typed) the whole time.
		wg.Add(1)
		go func(m served, w int) {
			defer wg.Done()
			// One connection per request: the soak's tight server-side
			// ReadTimeout closes idle keep-alive conns, and a pooled
			// client racing that close sees an EOF that is a test
			// artifact, not a server fault.
			client := &http.Client{Timeout: 10 * time.Second,
				Transport: &http.Transport{DisableKeepAlives: true}}
			for r := 0; r < rounds*4; r++ {
				b := goodBody(m, uint64(1000+w*100+r))
				resp, err := client.Post(base+path, "application/json", bytes.NewReader(b))
				if err != nil {
					mu.Lock()
					violations = append(violations, fmt.Sprintf("good traffic %s: transport error %v", m.name, err))
					mu.Unlock()
					continue
				}
				if !allowed[resp.StatusCode] {
					mu.Lock()
					violations = append(violations, fmt.Sprintf("good traffic %s: untyped status %d", m.name, resp.StatusCode))
					mu.Unlock()
				}
				if resp.StatusCode == 429 || resp.StatusCode == 503 {
					if resp.Header.Get("Retry-After") == "" {
						mu.Lock()
						violations = append(violations, fmt.Sprintf("good traffic %s: %d without Retry-After", m.name, resp.StatusCode))
						mu.Unlock()
					}
				}
				resp.Body.Close()
			}
		}(m, w)
	}
	wg.Wait()
	if len(violations) > 0 {
		t.Fatalf("robustness contract violated:\n%v", violations)
	}

	// Bit-identical coalescing under load: concurrent same-family
	// members must return exactly the outputs of a direct inference.
	for _, m := range ms {
		refIn := make([]map[string]*tensor.Tensor, 3)
		refOut := make([]map[string]*tensor.Tensor, 3)
		for i := range refIn {
			b, _ := sod2.BuildModel(m.name)
			refIn[i] = sod2.NewSample(b, 64, 0.5, uint64(7000+i)).Inputs
			out, _, err := m.c.Infer(refIn[i])
			if err != nil {
				t.Fatal(err)
			}
			refOut[i] = out
		}
		var bwg sync.WaitGroup
		for i := range refIn {
			bwg.Add(1)
			go func(i int) {
				defer bwg.Done()
				status, resp, eb, _ := postInfer(t,
					&http.Client{Timeout: 10 * time.Second,
						Transport: &http.Transport{DisableKeepAlives: true}},
					base+"/v1/models/"+m.name+"/infer", refIn[i], nil)
				if status != 200 {
					mu.Lock()
					violations = append(violations, fmt.Sprintf("batch member %s/%d: %d %v", m.name, i, status, eb))
					mu.Unlock()
					return
				}
				sameOutputs(t, resp.Outputs, refOut[i])
			}(i)
		}
		bwg.Wait()
	}
	if len(violations) > 0 {
		t.Fatalf("batched serving violated:\n%v", violations)
	}

	// SIGTERM-style shutdown: readiness flips first, then drain, then
	// the listener closes.
	srv.StartDraining()
	resp, err := http.Get(base + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %v %v", resp, err)
	}
	resp.Body.Close()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := hs.Shutdown(dctx); err != nil {
		t.Fatalf("http shutdown: %v", err)
	}
	<-serveDone

	// Nothing leaks: admission ledgers empty, goroutines back to the
	// pre-server baseline (bounded settle for conn teardown).
	for _, m := range ms {
		st := m.sess.Stats()
		if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
			t.Errorf("%s: admission ledger leak after drain: %+v", m.name, st.Admission)
		}
		if st.Requests == 0 {
			t.Errorf("%s: soak never exercised the session", m.name)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseGoroutines+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}
