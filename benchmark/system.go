package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	sod2 "repro"
	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/tensor"
)

// The `sod2 serve` defaults every workload runs under (cmd/sod2): two
// attempts, no admission cap, no deadline, sequential execution on the
// SD888 CPU profile, 2 ms / 8-member batch window, no quota.
const (
	serveBatchWindow = 2 * time.Millisecond
	serveBatchMax    = 8
	serveMaxAttempts = 2
	teardownTimeout  = 30 * time.Second
)

// system is the program under test, set up for one workload: one
// compiled model and session per model, and for an HTTP workload the
// server on a loopback listener plus the keep-alive client.
type system struct {
	w        workload
	builders []*models.Builder
	compiled map[string]*sod2.Compiled
	sessions map[string]*sod2.Session

	srv       *server.Server
	hs        *http.Server
	serveDone chan error
	baseURL   string
	client    *http.Client
}

// workloadBuilders lists a workload's distinct models in first-use order.
func workloadBuilders(w workload) ([]*models.Builder, error) {
	var out []*models.Builder
	seen := map[string]bool{}
	add := func(name string) error {
		if seen[name] {
			return nil
		}
		b, ok := models.Get(name)
		if !ok {
			return fmt.Errorf("unknown model %q", name)
		}
		seen[name] = true
		out = append(out, b)
		return nil
	}
	for _, d := range w.Models {
		if err := add(d.Model); err != nil {
			return nil, err
		}
	}
	for _, d := range w.OffPlan {
		if err := add(d.Model); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w workload) schedConfig() sod2.SchedConfig {
	var cfg sod2.SchedConfig
	if w.Int8 {
		cfg.Quant.Format = sod2.Int8
	}
	return cfg
}

// warmup is one model's pre-generated warm-up request.
type warmup struct {
	inputs map[string]*tensor.Tensor
	body   []byte
}

// prepareWarmups generates (and for HTTP encodes) the warm-up requests
// ahead of set-up, so generator time stays out of setup_s.
func prepareWarmups(w workload, builders []*models.Builder) (map[string]warmup, error) {
	out := make(map[string]warmup, len(builders))
	for _, b := range builders {
		wu := warmup{inputs: warmupInputs(b)}
		if w.HTTP {
			var err error
			if wu.body, err = encodeBody(wu.inputs); err != nil {
				return nil, fmt.Errorf("encode warm-up for %s: %w", b.Name, err)
			}
		}
		out[b.Name] = wu
	}
	return out, nil
}

// setUp brings the system up for w and returns the wall time spent
// inside the system's own set-up calls: graph build and
// CompileVerifiedSched, session / server / listener construction, and
// one warm-up request per model through the workload's request path.
func setUp(w workload, builders []*models.Builder, warm map[string]warmup) (*system, time.Duration, error) {
	start := time.Now()
	s := &system{
		w: w, builders: builders,
		compiled: make(map[string]*sod2.Compiled, len(builders)),
		sessions: make(map[string]*sod2.Session, len(builders)),
	}
	var served []server.Model
	for _, b := range builders {
		c, vrep, err := sod2.CompileVerifiedSched(b, w.schedConfig())
		if err != nil {
			return nil, 0, fmt.Errorf("compile %s: %w", b.Name, err)
		}
		if !vrep.Mem.Proven {
			return nil, 0, fmt.Errorf("compile %s: memory plan not region-proven", b.Name)
		}
		sess := c.NewSession(sod2.SessionOptions{
			Retry: sod2.RetryPolicy{MaxAttempts: serveMaxAttempts},
		})
		s.compiled[b.Name], s.sessions[b.Name] = c, sess
		served = append(served, server.Model{Name: b.Name, Compiled: c, Session: sess})
	}
	if w.HTTP {
		srv, err := server.New(served, server.Config{
			Batch: server.BatchConfig{Window: serveBatchWindow, MaxBatch: serveBatchMax},
		})
		if err != nil {
			return nil, 0, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		s.srv, s.hs = srv, srv.HTTPServer("")
		s.serveDone = make(chan error, 1)
		go func() { s.serveDone <- s.hs.Serve(ln) }()
		s.baseURL = "http://" + ln.Addr().String()
		s.client = &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: w.Clients},
		}
	}
	for _, b := range builders {
		wu := warm[b.Name]
		r := s.do(&entry{Model: b.Name, Inputs: wu.inputs, Body: wu.body})
		if r.Err != nil {
			_ = s.tearDown() // the warm-up failure is the error worth reporting
			return nil, 0, fmt.Errorf("warm-up %s: %w", b.Name, r.Err)
		}
	}
	return s, time.Since(start), nil
}

// tearDown stops the system and waits for everything it started: the
// server drains (which closes the sessions) and its Serve goroutine
// exits; in-process sessions are closed directly.
func (s *system) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), teardownTimeout)
	defer cancel()
	var errs []error
	if s.srv != nil {
		s.srv.StartDraining()
		if err := s.hs.Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("http shutdown: %w", err))
		}
		if err := s.srv.Drain(ctx); err != nil {
			errs = append(errs, fmt.Errorf("server drain: %w", err))
		}
		if err := <-s.serveDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("http serve: %w", err))
		}
		s.client.CloseIdleConnections()
	} else {
		for _, b := range s.builders {
			if err := s.sessions[b.Name].Close(ctx); err != nil {
				errs = append(errs, fmt.Errorf("close session %s: %w", b.Name, err))
			}
		}
	}
	return errors.Join(errs...)
}

// reply is what a client sees of one request.
type reply struct {
	Outputs map[string]*tensor.Tensor
	Report  sod2.Report
	// Latency is the client-observed time: the whole session call in
	// process; over HTTP, from sending the request to the last byte of
	// the response body (decoding the body is client work, not latency).
	Latency time.Duration
	// Status is the HTTP status (0 in process); Batched the coalesced
	// bucket size the server reported.
	Status  int
	Batched int
	// Err is nil for a served request; Fail then says which kind of
	// failure Err is.
	Err  error
	Fail failKind
}

// failKind classifies a failed request for the run's verdict.
type failKind int

const (
	failNone      failKind = iota
	failTransport          // connection, body read or response decode failed
	failNon200             // the server answered with an error status
	failInference          // the in-process call returned a typed error
)

// do issues one request through the workload's request path.
func (s *system) do(e *entry) reply {
	if s.w.HTTP {
		return s.doHTTP(e)
	}
	start := time.Now()
	out, rep, err := s.sessions[e.Model].InferConcurrentCtx(context.Background(), e.Inputs)
	r := reply{Outputs: out, Report: rep, Latency: time.Since(start), Err: err}
	if err != nil {
		r.Fail = failInference
	}
	return r
}

func (s *system) doHTTP(e *entry) reply {
	url := s.baseURL + "/v1/models/" + e.Model + "/infer"
	start := time.Now()
	resp, err := s.client.Post(url, "application/json", bytes.NewReader(e.Body))
	if err != nil {
		return reply{Latency: time.Since(start), Err: fmt.Errorf("transport: %w", err), Fail: failTransport}
	}
	raw, err := io.ReadAll(resp.Body)
	lat := time.Since(start)
	resp.Body.Close()
	r := reply{Latency: lat, Status: resp.StatusCode}
	if err != nil {
		r.Err, r.Fail = fmt.Errorf("transport: read body: %w", err), failTransport
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.Err, r.Fail = fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(raw)), failNon200
		return r
	}
	var body server.InferResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		r.Err, r.Fail = fmt.Errorf("decode response: %w", err), failTransport
		return r
	}
	r.Report, r.Batched = body.Report, body.Batched
	r.Outputs = make(map[string]*tensor.Tensor, len(body.Outputs))
	for name, wt := range body.Outputs {
		t, err := wt.Tensor()
		if err != nil {
			r.Err, r.Fail = fmt.Errorf("decode output %q: %w", name, err), failTransport
			return r
		}
		r.Outputs[name] = t
	}
	return r
}
