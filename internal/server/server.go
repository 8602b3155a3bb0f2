package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/tensor"

	sod2 "repro"
)

// Model is one servable entry: a compiled artifact plus the session
// that guards it. The server never touches the Compiled directly for
// inference — every request goes through the Session's admission,
// breaker, and retry policies.
type Model struct {
	Name     string
	Compiled *sod2.Compiled
	Session  *sod2.Session
}

// Config tunes the HTTP front-end. The zero value serves with sane
// defaults: batching off, quotas off, 8 MiB body cap, 30 s deadline cap.
type Config struct {
	Batch BatchConfig
	Quota QuotaConfig
	// MaxBodyBytes caps request bodies (http.MaxBytesReader); <= 0
	// defaults to 8 MiB. Oversized bodies are a typed 413.
	MaxBodyBytes int64
	// MaxDeadline caps the client-supplied X-Deadline-Ms so a client
	// cannot pin server resources arbitrarily long; <= 0 defaults 30 s.
	MaxDeadline time.Duration
	// DefaultDeadline bounds requests that send no X-Deadline-Ms;
	// 0 means unbounded (the session's own timeout still applies).
	DefaultDeadline time.Duration
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 8 << 20
}

func (c Config) maxDeadline() time.Duration {
	if c.MaxDeadline > 0 {
		return c.MaxDeadline
	}
	return 30 * time.Second
}

type servedModel struct {
	name    string
	sess    *sod2.Session
	batcher *batcher // nil when batching disabled
}

// Server is the HTTP front-end. Create with New, mount via Handler or
// HTTPServer, stop with StartDraining + Drain.
type Server struct {
	cfg    Config
	models map[string]*servedModel
	order  []string
	quota  *quotaSet
	mux    *http.ServeMux

	stop      chan struct{} // closed by Drain: cancels in-flight batch flushes
	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error

	// Wire counters.
	requests, errs4xx, errs5xx atomic.Uint64
}

// New builds a server over the given models.
func New(models []Model, cfg Config) (*Server, error) {
	if len(models) == 0 {
		return nil, errors.New("server: no models")
	}
	s := &Server{
		cfg:    cfg,
		models: make(map[string]*servedModel, len(models)),
		quota:  newQuotaSet(cfg.Quota),
		stop:   make(chan struct{}),
	}
	for _, m := range models {
		if m.Name == "" || m.Session == nil {
			return nil, fmt.Errorf("server: model %q needs a name and a session", m.Name)
		}
		if _, dup := s.models[m.Name]; dup {
			return nil, fmt.Errorf("server: duplicate model %q", m.Name)
		}
		sm := &servedModel{name: m.Name, sess: m.Session}
		if cfg.Batch.enabled() {
			sm.batcher = newBatcher(m.Session, cfg.Batch, s.stop)
		}
		s.models[m.Name] = sm
		s.order = append(s.order, m.Name)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("POST /v1/models/{model}/infer", s.handleInfer)
	mux.HandleFunc("POST /v1/models/{model}/infer/stream", s.handleInferStream)
	s.mux = mux
	return s, nil
}

// Handler is the root http.Handler (mount it on any server/mux).
func (s *Server) Handler() http.Handler { return s.mux }

// HTTPServer wraps the handler in an *http.Server with conservative
// wire timeouts so slow-loris clients cannot pin connections: header
// and idle timeouts are short; the overall read/write timeouts leave
// room for the longest admissible inference (MaxDeadline) plus margin.
func (s *Server) HTTPServer(addr string) *http.Server {
	slack := 10 * time.Second
	return &http.Server{
		Addr:              addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       s.cfg.maxDeadline() + slack,
		WriteTimeout:      s.cfg.maxDeadline() + slack,
		IdleTimeout:       60 * time.Second,
	}
}

// StartDraining flips /readyz to 503 and refuses new inference with a
// typed 503 + Retry-After, without yet cancelling in-flight work. Call
// it on SIGTERM, let the load balancer observe readiness, then Drain.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain completes shutdown: refuse new work, flush every pending batch
// bucket, then close each session (waiting for in-flight inferences),
// all bounded by ctx. Idempotent; concurrent calls share one result.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		var errs []error
		for _, name := range s.order {
			sm := s.models[name]
			if sm.batcher != nil {
				if err := sm.batcher.drain(ctx); err != nil {
					errs = append(errs, fmt.Errorf("batcher %q: %w", name, err))
				}
			}
		}
		// Only after buckets flushed: cancel the flush-watch goroutines
		// and close sessions (Close waits for in-flight requests).
		close(s.stop)
		for _, name := range s.order {
			if err := s.models[name].sess.Close(ctx); err != nil && !errors.Is(err, sod2.ErrClosed) {
				errs = append(errs, fmt.Errorf("session %q: %w", name, err))
			}
		}
		s.drainErr = errors.Join(errs...)
	})
	return s.drainErr
}

// ---- probes ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ready\n")
}

// modelStats is one model's entry in /statsz.
type modelStats struct {
	Health  resilience.HealthState `json:"health"`
	Session sod2.SessionStats      `json:"session"`
	Batcher *BatcherStats          `json:"batcher,omitempty"`
}

// statszBody is the /statsz response.
type statszBody struct {
	Ready        bool                  `json:"ready"`
	Draining     bool                  `json:"draining"`
	Requests     uint64                `json:"requests"`
	Errors4xx    uint64                `json:"errors_4xx"`
	Errors5xx    uint64                `json:"errors_5xx"`
	QuotaClients int                   `json:"quota_clients"`
	QuotaDenied  uint64                `json:"quota_denied"`
	Models       map[string]modelStats `json:"models"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	clients, denied := s.quota.stats()
	body := statszBody{
		Ready:        !s.draining.Load(),
		Draining:     s.draining.Load(),
		Requests:     s.requests.Load(),
		Errors4xx:    s.errs4xx.Load(),
		Errors5xx:    s.errs5xx.Load(),
		QuotaClients: clients,
		QuotaDenied:  denied,
		Models:       make(map[string]modelStats, len(s.models)),
	}
	for name, sm := range s.models {
		ms := modelStats{Health: sm.sess.Health(), Session: sm.sess.Stats()}
		if sm.batcher != nil {
			bs := sm.batcher.statsSnapshot()
			ms.Batcher = &bs
		}
		body.Models[name] = ms
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// ---- inference ----

// prep runs the shared request front half: drain check, model lookup,
// quota, body decode + validation, deadline propagation. It returns the
// request-scoped context (caller must cancel) or a classified error.
func (s *Server) prep(w http.ResponseWriter, r *http.Request) (*servedModel, map[string]*tensor.Tensor, context.Context, context.CancelFunc, error) {
	if s.draining.Load() {
		return nil, nil, nil, nil, fmt.Errorf("%w: server is shutting down", ErrDraining)
	}
	name := r.PathValue("model")
	sm := s.models[name]
	if sm == nil {
		return nil, nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if err := s.quota.allow(clientKey(r), time.Now()); err != nil {
		return nil, nil, nil, nil, err
	}

	body, err := readBody(w, r, s.cfg.maxBodyBytes())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	req, err := DecodeRequest(body)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	inputs, err := req.DecodeInputs()
	if err != nil {
		return nil, nil, nil, nil, err
	}

	// X-Deadline-Ms → context deadline, capped by MaxDeadline. The cap
	// is compared in milliseconds first: ms·1e6 ns overflows a Duration
	// for ms ≥ 9 223 372 036 855.
	budget := s.cfg.DefaultDeadline
	limit := s.cfg.maxDeadline()
	if h := r.Header.Get(HeaderDeadline); h != "" {
		ms, perr := strconv.ParseInt(h, 10, 64)
		if perr != nil || ms <= 0 {
			return nil, nil, nil, nil, fmt.Errorf("%w: invalid %s %q", ErrBadRequest, HeaderDeadline, h)
		}
		budget = limit
		if ms <= limit.Milliseconds() {
			budget = time.Duration(ms) * time.Millisecond
		}
	}
	if budget == 0 || budget > limit {
		budget = limit
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return sm, inputs, ctx, cancel, nil
}

// firstReadBytes caps readBody's first allocation.
const firstReadBytes = 1 << 20

// readBody reads the whole size-capped request body into one buffer.
// The first allocation is Content-Length (clamped to the cap), at most
// firstReadBytes; past that the buffer grows as bytes arrive, so a
// client that declares a large body and stalls holds little memory. A
// body over the cap is the *http.MaxBytesError (413); any other read
// failure is a 400.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), limit, firstReadBytes)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: read body: %v", ErrBadRequest, err)
	}
	return buf.Bytes(), nil
}

// serveOne executes one prepared request: through the coalescing
// batcher when the inputs map to a bucketable region-proof key, else
// directly through the session.
func (s *Server) serveOne(ctx context.Context, sm *servedModel, inputs map[string]*tensor.Tensor) BatchOutcome {
	if sm.batcher != nil {
		if key, _ := sm.sess.FamilyKey(inputs); key != "" {
			return sm.batcher.enqueue(ctx, key, sod2.Sample{Inputs: inputs})
		}
	}
	out, rep, err := sm.sess.InferConcurrentCtx(ctx, inputs)
	return BatchOutcome{Outputs: out, Report: rep, Size: 1, Err: err}
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	sm, inputs, ctx, cancel, err := s.prep(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()
	res := s.serveOne(ctx, sm, inputs)
	if res.Err != nil {
		s.writeError(w, res.Err)
		return
	}
	resp := InferResponse{Model: sm.name, Batched: res.Size, Report: res.Report,
		Outputs: make(map[string]*WireTensor, len(res.Outputs))}
	for name, t := range res.Outputs {
		resp.Outputs[name] = ToWire(t)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderTier, res.Report.FallbackTier.String())
	w.Header().Set(HeaderBatch, strconv.Itoa(res.Size))
	json.NewEncoder(w).Encode(resp)
}

// handleInferStream is the chunked variant: an NDJSON event stream
// (`accepted`, one `output` per tensor, terminal `done`/`error`). The
// stream commits to 200 at accept time, so post-accept failures arrive
// as a terminal error event, not a status code. Each write carries its
// own deadline so a stalled reader cannot pin the handler.
func (s *Server) handleInferStream(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	sm, inputs, ctx, cancel, err := s.prep(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer cancel()

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	writeEvent := func(ev StreamEvent) error {
		rc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		if err := enc.Encode(ev); err != nil {
			return err
		}
		return rc.Flush()
	}
	if err := writeEvent(StreamEvent{Event: "accepted", Model: sm.name}); err != nil {
		return // reader gone before work started; nothing owed
	}

	res := s.serveOne(ctx, sm, inputs)
	if res.Err != nil {
		status, body := Classify(res.Err)
		s.countError(status)
		writeEvent(StreamEvent{Event: "error", Error: &body})
		return
	}
	for name, t := range res.Outputs {
		if err := writeEvent(StreamEvent{Event: "output", Name: name, Tensor: ToWire(t)}); err != nil {
			return
		}
	}
	rep := res.Report
	writeEvent(StreamEvent{Event: "done", Model: sm.name, Batched: res.Size, Report: &rep})
}

func (s *Server) countError(status int) {
	switch {
	case status >= 500:
		s.errs5xx.Add(1)
	case status >= 400:
		s.errs4xx.Add(1)
	}
}

// writeError renders a classified error: JSON envelope, Retry-After on
// retryable refusals, and the error counters.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, body := Classify(err)
	s.countError(status)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if body.RetryAfterMS > 0 {
		secs := (body.RetryAfterMS + 999) / 1000
		h.Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: body})
}
