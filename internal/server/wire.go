// Package server is the resilient network front-end over the SoD²
// serving stack: a stdlib-only net/http JSON API in front of
// sod2.Session, engineered for graceful degradation end to end.
//
//	POST /v1/models/{model}/infer         one inference, JSON in/out
//	POST /v1/models/{model}/infer/stream  chunked NDJSON event stream
//	GET  /healthz                         process liveness (always 200)
//	GET  /readyz                          503 once draining begins
//	GET  /statsz                          serving stats, JSON
//
// The front-end extends the repository's static-to-dynamic contract
// across the network boundary:
//
//   - Cross-request batching buckets in-flight requests by their
//     region-proof key (the shape family the static verifier proved one
//     plan for) and serves each bucket as one coalesced
//     Session.InferBucketCtx call, so plan verification and admission
//     reservations amortize across clients.
//   - Per-client token-bucket quotas shed abusive clients with 429 +
//     Retry-After before they reach admission.
//   - The X-Deadline-Ms request header propagates into a
//     context.WithTimeout bounding admission wait, batching wait, and
//     execution; expiry surfaces as a typed 408.
//   - Overloads are typed, never silent: admission sheds map to 503 +
//     Retry-After, quota to 429, oversized bodies to 413, malformed
//     bodies to 400, and the degradation tier actually served rides
//     back in the X-Sod2-Tier response header.
//   - Draining flips /readyz, refuses new work with 503, flushes every
//     batch bucket, and closes the sessions bounded by a deadline.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/tensor"

	sod2 "repro"
)

// Wire headers.
const (
	// HeaderDeadline (request) is the client's end-to-end budget in
	// milliseconds; it becomes a context deadline on the server.
	HeaderDeadline = "X-Deadline-Ms"
	// HeaderClient (request) names the client for quota accounting;
	// requests without it are keyed by remote address.
	HeaderClient = "X-Client-Id"
	// HeaderTier (response) is the degradation tier the request was
	// actually served on (Report.FallbackTier: planned/dynamic/float32).
	HeaderTier = "X-Sod2-Tier"
	// HeaderBatch (response) is the size of the coalesced shape-family
	// bucket the request was served in (1 = served alone).
	HeaderBatch = "X-Sod2-Batch"
)

// maxWireElems caps a single wire tensor's element count (16Mi) so a
// hostile shape cannot force a huge allocation before validation.
const maxWireElems = 1 << 24

// WireTensor is the JSON form of one dense tensor. Exactly one data
// field may be populated and its length must equal the shape's element
// product.
type WireTensor struct {
	DType string    `json:"dtype"`
	Shape []int64   `json:"shape"`
	F     []float32 `json:"float_data,omitempty"`
	I     []int64   `json:"int_data,omitempty"`
	B     []bool    `json:"bool_data,omitempty"`
}

// ToWire converts a runtime tensor to its wire form (no copy: the wire
// struct aliases the tensor's backing slices, so marshal before the
// tensor is mutated).
func ToWire(t *tensor.Tensor) *WireTensor {
	return &WireTensor{DType: t.DType.String(), Shape: t.Shape, F: t.F, I: t.I, B: t.B}
}

// Tensor validates and converts the wire form back to a runtime tensor.
func (w *WireTensor) Tensor() (*tensor.Tensor, error) {
	var dt tensor.DType
	switch w.DType {
	case tensor.Float32.String():
		dt = tensor.Float32
	case tensor.Int64.String():
		dt = tensor.Int64
	case tensor.Bool.String():
		dt = tensor.Bool
	default:
		return nil, fmt.Errorf("%w: unknown dtype %q", ErrBadRequest, w.DType)
	}
	elems := int64(1)
	for _, d := range w.Shape {
		if d < 0 {
			return nil, fmt.Errorf("%w: negative dim %d", ErrBadRequest, d)
		}
		if d > 0 && elems > maxWireElems/d {
			return nil, fmt.Errorf("%w: shape %v exceeds element cap %d", ErrBadRequest, w.Shape, maxWireElems)
		}
		elems *= d
	}
	nf, ni, nb := len(w.F), len(w.I), len(w.B)
	populated, n := 0, 0
	for _, c := range []int{nf, ni, nb} {
		if c > 0 {
			populated++
			n = c
		}
	}
	if populated > 1 {
		return nil, fmt.Errorf("%w: multiple data fields populated", ErrBadRequest)
	}
	if int64(n) != elems && !(n == 0 && elems == 0) {
		return nil, fmt.Errorf("%w: %d data elements for shape %v (want %d)", ErrBadRequest, n, w.Shape, elems)
	}
	t := &tensor.Tensor{DType: dt, Shape: append([]int64(nil), w.Shape...)}
	switch dt {
	case tensor.Float32:
		if ni+nb > 0 {
			return nil, fmt.Errorf("%w: float32 tensor carries non-float data", ErrBadRequest)
		}
		t.F = w.F
		if t.F == nil {
			t.F = make([]float32, elems)
		}
	case tensor.Int64:
		if nf+nb > 0 {
			return nil, fmt.Errorf("%w: int64 tensor carries non-int data", ErrBadRequest)
		}
		t.I = w.I
		if t.I == nil {
			t.I = make([]int64, elems)
		}
	case tensor.Bool:
		if nf+ni > 0 {
			return nil, fmt.Errorf("%w: bool tensor carries non-bool data", ErrBadRequest)
		}
		t.B = w.B
		if t.B == nil {
			t.B = make([]bool, elems)
		}
	}
	return t, nil
}

// InferRequest is the POST body of /v1/models/{model}/infer.
type InferRequest struct {
	Inputs map[string]*WireTensor `json:"inputs"`
}

// EncodeInputs converts a runtime input set to a wire request.
func EncodeInputs(inputs map[string]*tensor.Tensor) *InferRequest {
	req := &InferRequest{Inputs: make(map[string]*WireTensor, len(inputs))}
	for name, t := range inputs {
		req.Inputs[name] = ToWire(t)
	}
	return req
}

// DecodeInputs validates a wire request into runtime tensors.
func (r *InferRequest) DecodeInputs() (map[string]*tensor.Tensor, error) {
	if len(r.Inputs) == 0 {
		return nil, fmt.Errorf("%w: empty inputs", ErrBadRequest)
	}
	out := make(map[string]*tensor.Tensor, len(r.Inputs))
	for name, w := range r.Inputs {
		if w == nil {
			return nil, fmt.Errorf("%w: null tensor for input %q", ErrBadRequest, name)
		}
		t, err := w.Tensor()
		if err != nil {
			return nil, fmt.Errorf("input %q: %w", name, err)
		}
		out[name] = t
	}
	return out, nil
}

// InferResponse is the 200 body of /v1/models/{model}/infer.
type InferResponse struct {
	Model string `json:"model"`
	// Batched is the coalesced bucket size this request was served in
	// (1 = alone; also in the X-Sod2-Batch header).
	Batched int                    `json:"batched"`
	Outputs map[string]*WireTensor `json:"outputs"`
	Report  sod2.Report            `json:"report"`
}

// StreamEvent is one NDJSON line of the chunked streaming variant. The
// sequence is `accepted`, one `output` per output tensor, then exactly
// one terminal `done` or `error`.
type StreamEvent struct {
	Event   string       `json:"event"`
	Model   string       `json:"model,omitempty"`
	Name    string       `json:"name,omitempty"`
	Tensor  *WireTensor  `json:"tensor,omitempty"`
	Batched int          `json:"batched,omitempty"`
	Report  *sod2.Report `json:"report,omitempty"`
	Error   *ErrorBody   `json:"error,omitempty"`
}

// ErrorBody is the JSON error envelope every non-200 response carries
// (under an "error" key) and the streaming variant's terminal error
// event embeds.
type ErrorBody struct {
	// Code is the stable machine-readable class; Message the human
	// detail. RetryAfterMS is set when the condition is retryable
	// (overload, quota, draining) and mirrors the Retry-After header.
	Code         string `json:"code"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// Error-class sentinels for wire classification (errors.Is).
var (
	// ErrBadRequest classifies malformed wire input (bad JSON shape,
	// bad tensor encoding, missing inputs) → 400.
	ErrBadRequest = errors.New("server: bad request")
	// ErrUnknownModel classifies requests naming a model the server
	// does not serve → 404.
	ErrUnknownModel = errors.New("server: unknown model")
	// ErrDraining refuses new work once draining has begun → 503.
	ErrDraining = errors.New("server: draining")
	// ErrQuota is a per-client token-bucket refusal → 429.
	ErrQuota = errors.New("server: quota exceeded")
)

// retryAfterOverload is the Retry-After hint attached to admission
// sheds and drain refusals: long enough for in-flight work to retire,
// short enough that clients re-probe a healing server quickly.
const retryAfterOverload = time.Second

// Classify maps a serving error to its HTTP status and wire error body.
// Every error is typed: wire faults are 4xx, capacity and lifecycle
// refusals are 429/503 with Retry-After, deadline expiry is 408, and
// only genuine execution failures surface as 500.
func Classify(err error) (int, ErrorBody) {
	var mbe *http.MaxBytesError
	var qe *quotaError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge, ErrorBody{
			Code: "body_too_large", Message: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
	case errors.As(err, &qe):
		return http.StatusTooManyRequests, ErrorBody{
			Code: "quota_exceeded", Message: err.Error(),
			RetryAfterMS: qe.retryAfter.Milliseconds()}
	case errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests, ErrorBody{
			Code: "quota_exceeded", Message: err.Error(),
			RetryAfterMS: retryAfterOverload.Milliseconds()}
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound, ErrorBody{Code: "unknown_model", Message: err.Error()}
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, ErrorBody{Code: "bad_request", Message: err.Error()}
	case errors.Is(err, ErrDraining), errors.Is(err, sod2.ErrClosed):
		return http.StatusServiceUnavailable, ErrorBody{
			Code: "draining", Message: err.Error(),
			RetryAfterMS: retryAfterOverload.Milliseconds()}
	case errors.Is(err, sod2.ErrOverloaded):
		return http.StatusServiceUnavailable, ErrorBody{
			Code: "overloaded", Message: err.Error(),
			RetryAfterMS: retryAfterOverload.Milliseconds()}
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, ErrorBody{Code: "deadline_exceeded", Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, ErrorBody{Code: "cancelled", Message: err.Error()}
	case errors.Is(err, sod2.ErrContract):
		// A contract error that survived the guarded runtime's
		// degradation ladder is deterministic for these inputs (missing
		// input, undecodable binding): the client's request is wrong.
		return http.StatusBadRequest, ErrorBody{Code: "contract_violation", Message: err.Error()}
	default:
		return http.StatusInternalServerError, ErrorBody{Code: "execution", Message: err.Error()}
	}
}
