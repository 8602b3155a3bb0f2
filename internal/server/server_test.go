package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/resilience"
	"repro/internal/tensor"

	sod2 "repro"
)

// compileModel compiles one evaluation model with the static verifier
// on, so requests are served from the region proof's plan.
func compileModel(t *testing.T, name string) *sod2.Compiled {
	t.Helper()
	b, err := sod2.BuildModel(name)
	if err != nil {
		t.Fatal(err)
	}
	c, rep, err := sod2.CompileVerified(b)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mem.Proven {
		t.Fatalf("%s: memory plan unproven (%s)", name, rep.Mem.Reason)
	}
	return c
}

func sampleInputs(t *testing.T, name string, seed uint64) map[string]*tensor.Tensor {
	t.Helper()
	b, err := sod2.BuildModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return sod2.NewSample(b, 64, 0.5, seed).Inputs
}

// newTestServer builds a one-model server over CodeBERT plus an
// httptest front. Callers customize via opts/cfg.
func newTestServer(t *testing.T, opts sod2.SessionOptions, cfg Config) (*Server, *sod2.Session, *httptest.Server) {
	t.Helper()
	return serveCompiled(t, compileModel(t, "CodeBERT"), opts, cfg)
}

// serveCompiled serves c as the one model "codebert" behind an httptest
// front.
func serveCompiled(t *testing.T, c *sod2.Compiled, opts sod2.SessionOptions, cfg Config) (*Server, *sod2.Session, *httptest.Server) {
	t.Helper()
	sess := c.NewSession(opts)
	srv, err := New([]Model{{Name: "codebert", Compiled: c, Session: sess}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, sess, ts
}

// postInfer sends one wire request and decodes either side of the
// protocol: the response on 200, the error envelope otherwise.
func postInfer(t *testing.T, client *http.Client, url string, inputs map[string]*tensor.Tensor, hdr map[string]string) (int, *InferResponse, *ErrorBody, http.Header) {
	t.Helper()
	body, err := json.Marshal(EncodeInputs(inputs))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var ir InferResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			t.Fatalf("decode 200 body: %v", err)
		}
		return resp.StatusCode, &ir, nil, resp.Header
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("status %d: error body is not the JSON envelope: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, nil, &env.Error, resp.Header
}

// sameOutputs demands bit-identical wire outputs vs a reference run.
func sameOutputs(t *testing.T, got map[string]*WireTensor, want map[string]*tensor.Tensor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("output count = %d, want %d", len(got), len(want))
	}
	for name, ref := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("missing output %q", name)
		}
		gt, err := g.Tensor()
		if err != nil {
			t.Fatalf("output %q: %v", name, err)
		}
		if fmt.Sprint(gt.Shape) != fmt.Sprint(ref.Shape) {
			t.Fatalf("output %q shape = %v, want %v", name, gt.Shape, ref.Shape)
		}
		for i := range ref.F {
			if gt.F[i] != ref.F[i] {
				t.Fatalf("output %q[%d] = %v, want %v (not bit-identical)", name, i, gt.F[i], ref.F[i])
			}
		}
		for i := range ref.I {
			if gt.I[i] != ref.I[i] {
				t.Fatalf("output %q[%d] = %v, want %v", name, i, gt.I[i], ref.I[i])
			}
		}
	}
}

// TestInferHappyPath: a well-formed request serves 200 with outputs
// bit-identical to a direct in-process inference, and the tier header
// is present.
func TestInferHappyPath(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	inputs := sampleInputs(t, "CodeBERT", 1)
	ref, _, err := compileModel(t, "CodeBERT").Infer(inputs)
	if err != nil {
		t.Fatal(err)
	}
	status, resp, _, hdr := postInfer(t, ts.Client(), ts.URL+"/v1/models/codebert/infer", inputs, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if resp.Model != "codebert" || resp.Batched != 1 {
		t.Fatalf("resp meta = %q/%d, want codebert/1", resp.Model, resp.Batched)
	}
	if hdr.Get(HeaderTier) == "" {
		t.Fatal("missing tier header")
	}
	sameOutputs(t, resp.Outputs, ref)
}

// TestInferFloat32Tier: an int8 compile whose packed scales are all
// non-finite serves on the float32 rung, the last one. The tier header
// and the decoded JSON report both name it, and the outputs are the
// float32 compile's bit for bit.
func TestInferFloat32Tier(t *testing.T) {
	b, err := sod2.BuildModel("CodeBERT")
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := sod2.CompileVerifiedSched(b, sod2.SchedConfig{Quant: sod2.QuantConfig{Format: sod2.Int8}})
	if err != nil {
		t.Fatal(err)
	}
	if n := faultinject.CorruptAllQuantScales(c.Graph(), float32(math.NaN())); n == 0 {
		t.Fatal("int8 compile packed nothing")
	}
	_, _, ts := serveCompiled(t, c, sod2.SessionOptions{}, Config{})
	inputs := sampleInputs(t, "CodeBERT", 1)
	ref, _, err := compileModel(t, "CodeBERT").Infer(inputs)
	if err != nil {
		t.Fatal(err)
	}
	status, resp, _, hdr := postInfer(t, ts.Client(), ts.URL+"/v1/models/codebert/infer", inputs, nil)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if got := hdr.Get(HeaderTier); got != "float32" {
		t.Errorf("%s header = %q, want float32", HeaderTier, got)
	}
	rep := resp.Report
	if rep.FallbackTier != sod2.TierFloat32 || len(rep.Degradations) != 1 ||
		rep.Degradations[0].Kind != guard.KindQuant || rep.Degradations[0].To != sod2.TierFloat32 {
		t.Errorf("decoded report tier %v, degradations %+v: want one quant step to float32", rep.FallbackTier, rep.Degradations)
	}
	sameOutputs(t, resp.Outputs, ref)
}

// typedErrorCase is one refused request of TestInferTypedErrors.
type typedErrorCase struct {
	name, path, body string
	status           int
	code             string
}

// typedErrorCases are TestInferTypedErrors' refusals against a CodeBERT
// server capped at typedErrorsMaxBody; FuzzDecodeRequest seeds from their
// bodies.
func typedErrorCases(tb testing.TB) []typedErrorCase {
	b, err := sod2.BuildModel("CodeBERT")
	if err != nil {
		tb.Fatal(err)
	}
	okBody, err := json.Marshal(EncodeInputs(sod2.NewSample(b, 64, 0.5, 2).Inputs))
	if err != nil {
		tb.Fatal(err)
	}
	big := `{"inputs":{"x":{"dtype":"float32","shape":[4096],"float_data":[` +
		strings.Repeat("1,", 4095) + `1]}}}`
	// A servable body, then whitespace until the body is over the cap.
	padded := string(okBody) + strings.Repeat(" ", typedErrorsMaxBody)

	return []typedErrorCase{
		{"unknown model", "/v1/models/nope/infer", string(okBody), 404, "unknown_model"},
		{"malformed json", "/v1/models/codebert/infer", `{"inputs": nope`, 400, "bad_request"},
		{"empty inputs", "/v1/models/codebert/infer", `{"inputs":{}}`, 400, "bad_request"},
		{"bad dtype", "/v1/models/codebert/infer", `{"inputs":{"x":{"dtype":"float16","shape":[1]}}}`, 400, "bad_request"},
		{"length mismatch", "/v1/models/codebert/infer", `{"inputs":{"x":{"dtype":"float32","shape":[3],"float_data":[1]}}}`, 400, "bad_request"},
		{"trailing garbage", "/v1/models/codebert/infer", `{"inputs":{"x":{"dtype":"float32","shape":[1],"float_data":[1]}}} {"again":1}`, 400, "bad_request"},
		{"trailing bracket", "/v1/models/codebert/infer", string(okBody) + "]", 400, "bad_request"},
		{"trailing brace", "/v1/models/codebert/infer", string(okBody) + "}", 400, "bad_request"},
		{"oversized body", "/v1/models/codebert/infer", big, 413, "body_too_large"},
		{"padded past cap", "/v1/models/codebert/infer", padded, 413, "body_too_large"},
		{"wrong input names", "/v1/models/codebert/infer", `{"inputs":{"bogus":{"dtype":"float32","shape":[2],"float_data":[1,2]}}}`, 400, "contract_violation"},
		{"zero extent", "/v1/models/codebert/infer", `{"inputs":{"tokens":{"dtype":"int64","shape":[1,0]}}}`, 400, "contract_violation"},
	}
}

// typedErrorsMaxBody is TestInferTypedErrors' body cap.
const typedErrorsMaxBody = 4 << 10

// TestInferTypedErrors pins the wire error taxonomy: every refusal is a
// specific status with a machine-readable code in the JSON envelope.
// Anything but whitespace after the request object is a 400, and every
// body over the cap is a 413, even when a servable object precedes the
// excess.
func TestInferTypedErrors(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{MaxBodyBytes: typedErrorsMaxBody})
	client := ts.Client()
	inputs := sampleInputs(t, "CodeBERT", 2)

	post := func(path, body string) (int, ErrorBody) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: error body not enveloped: %v", path, err)
		}
		return resp.StatusCode, env.Error
	}

	for _, tc := range typedErrorCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			status, eb := post(tc.path, tc.body)
			if status != tc.status || eb.Code != tc.code {
				t.Fatalf("got %d/%q (%s), want %d/%q", status, eb.Code, eb.Message, tc.status, tc.code)
			}
		})
	}

	for _, tc := range []struct{ name, header string }{
		{"invalid deadline header", "soon"},
		{"zero deadline header", "0"},
		{"negative deadline header", "-5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, eb, _ := postInfer(t, client, ts.URL+"/v1/models/codebert/infer", inputs,
				map[string]string{HeaderDeadline: tc.header})
			if status != 400 || eb.Code != "bad_request" {
				t.Fatalf("%s %q: got %d/%v, want 400/bad_request", HeaderDeadline, tc.header, status, eb)
			}
		})
	}
}

// TestQuota429 pins the per-client token bucket: a client past its
// burst gets a typed 429 with Retry-After, while other clients and the
// probes stay unaffected.
func TestQuota429(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{
		Quota: QuotaConfig{RatePerSec: 0.01, Burst: 1},
	})
	client := ts.Client()
	inputs := sampleInputs(t, "CodeBERT", 3)
	url := ts.URL + "/v1/models/codebert/infer"

	if status, _, _, _ := postInfer(t, client, url, inputs, map[string]string{HeaderClient: "alice"}); status != 200 {
		t.Fatalf("first alice request: %d, want 200", status)
	}
	status, _, eb, hdr := postInfer(t, client, url, inputs, map[string]string{HeaderClient: "alice"})
	if status != http.StatusTooManyRequests || eb.Code != "quota_exceeded" {
		t.Fatalf("second alice request: %d/%v, want 429/quota_exceeded", status, eb)
	}
	if hdr.Get("Retry-After") == "" || eb.RetryAfterMS <= 0 {
		t.Fatalf("429 must carry Retry-After: header=%q body=%d", hdr.Get("Retry-After"), eb.RetryAfterMS)
	}
	if status, _, _, _ := postInfer(t, client, url, inputs, map[string]string{HeaderClient: "bob"}); status != 200 {
		t.Fatalf("bob must not share alice's bucket: %d, want 200", status)
	}
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz during quota pressure: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestDeadlineHeaderPropagates: X-Deadline-Ms becomes a context
// deadline that cuts a stalled execution into a typed 408.
func TestDeadlineHeaderPropagates(t *testing.T) {
	inj := faultinject.New(faultinject.KernelStall, 0)
	inj.Repeat = true
	inj.Delay = 50 * time.Millisecond
	_, _, ts := newTestServer(t, sod2.SessionOptions{Hooks: inj.Hooks()}, Config{})
	inputs := sampleInputs(t, "CodeBERT", 4)
	status, _, eb, _ := postInfer(t, ts.Client(), ts.URL+"/v1/models/codebert/infer", inputs,
		map[string]string{HeaderDeadline: "15"})
	if status != http.StatusRequestTimeout {
		t.Fatalf("status = %d (%v), want 408", status, eb)
	}
	if eb.Code != "deadline_exceeded" && eb.Code != "cancelled" {
		t.Fatalf("code = %q, want deadline_exceeded", eb.Code)
	}
}

// TestDeadlineHeaderOverflowCapped: an X-Deadline-Ms too large for a
// time.Duration in nanoseconds is capped at MaxDeadline and served, not
// wrapped into a negative budget that expires at once.
func TestDeadlineHeaderOverflowCapped(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	inputs := sampleInputs(t, "CodeBERT", 4)
	for _, ms := range []string{"9223372036855", "9223372036854775807"} {
		status, _, eb, _ := postInfer(t, ts.Client(), ts.URL+"/v1/models/codebert/infer", inputs,
			map[string]string{HeaderDeadline: ms})
		if status != http.StatusOK {
			t.Fatalf("%s ms: status = %d (%v), want 200 under the cap", ms, status, eb)
		}
	}
}

// TestOverload503 drives the session's admission gate through the wire:
// with one slot and no queue, a request arriving while another executes
// sheds as 503 overloaded with Retry-After.
func TestOverload503(t *testing.T) {
	inj := faultinject.New(faultinject.KernelStall, 0)
	inj.Delay = 150 * time.Millisecond
	_, _, ts := newTestServer(t, sod2.SessionOptions{
		Hooks:     inj.Hooks(),
		Admission: resilience.AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0},
	}, Config{})
	inputs := sampleInputs(t, "CodeBERT", 5)
	url := ts.URL + "/v1/models/codebert/infer"

	firstDone := make(chan int, 1)
	go func() {
		status, _, _, _ := postInfer(t, ts.Client(), url, inputs, nil)
		firstDone <- status
	}()
	time.Sleep(40 * time.Millisecond) // let the stalled request occupy the slot
	status, _, eb, hdr := postInfer(t, ts.Client(), url, inputs, nil)
	if status != http.StatusServiceUnavailable || eb.Code != "overloaded" {
		t.Fatalf("concurrent request: %d/%v, want 503/overloaded", status, eb)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 overloaded must carry Retry-After")
	}
	if s := <-firstDone; s != 200 {
		t.Fatalf("stalled-but-admitted request: %d, want 200", s)
	}
}

// TestOverloadIsolatesModels: admission is per model. With model A's
// one slot held by a stalled request, a second A request sheds 503 while
// model B, behind the same server and an equally tight gate, serves 200.
func TestOverloadIsolatesModels(t *testing.T) {
	inj := faultinject.New(faultinject.KernelStall, 0)
	inj.Delay = time.Second
	tight := resilience.AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0}
	ca, cb := compileModel(t, "CodeBERT"), compileModel(t, "Conformer")
	sessA := ca.NewSession(sod2.SessionOptions{Hooks: inj.Hooks(), Admission: tight})
	sessB := cb.NewSession(sod2.SessionOptions{Admission: tight})
	srv, err := New([]Model{
		{Name: "a", Compiled: ca, Session: sessA},
		{Name: "b", Compiled: cb, Session: sessB},
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	inA, inB := sampleInputs(t, "CodeBERT", 5), sampleInputs(t, "Conformer", 5)

	firstDone := make(chan int, 1)
	go func() {
		status, _, _, _ := postInfer(t, ts.Client(), ts.URL+"/v1/models/a/infer", inA, nil)
		firstDone <- status
	}()
	for deadline := time.Now().Add(30 * time.Second); !inj.Fired(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never reached its first kernel")
		}
	}
	if status, _, eb, _ := postInfer(t, ts.Client(), ts.URL+"/v1/models/a/infer", inA, nil); status != http.StatusServiceUnavailable || eb.Code != "overloaded" {
		t.Fatalf("second A request: %d/%v, want 503/overloaded", status, eb)
	}
	if status, _, eb, _ := postInfer(t, ts.Client(), ts.URL+"/v1/models/b/infer", inB, nil); status != http.StatusOK {
		t.Fatalf("B request while A is saturated: %d/%v, want 200", status, eb)
	}
	if s := <-firstDone; s != http.StatusOK {
		t.Fatalf("stalled-but-admitted A request: %d, want 200", s)
	}
	if a, b := sessA.Stats().Admission, sessB.Stats().Admission; a.ShedConcurrency != 1 || b.Shed() != 0 {
		t.Errorf("sheds: A %d concurrency, B %d; want 1 and 0", a.ShedConcurrency, b.Shed())
	}
}

// TestInferConcurrentServesDirectly: concurrent clients of one model
// are each served on their own: every request takes its own admission,
// answers Batched == 1 with no batch header, and returns outputs
// bit-identical to a direct inference on its own inputs. Nothing is left
// in flight or queued.
func TestInferConcurrentServesDirectly(t *testing.T) {
	_, sess, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	c := compileModel(t, "CodeBERT")
	const n = 4
	url := ts.URL + "/v1/models/codebert/infer"

	refs := make([]map[string]*tensor.Tensor, n)
	ins := make([]map[string]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = sampleInputs(t, "CodeBERT", uint64(10+i)) // distinct data
		ref, _, err := c.Infer(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	type got struct {
		status int
		resp   *InferResponse
		hdr    http.Header
	}
	results := make([]got, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, resp, _, hdr := postInfer(t, ts.Client(), url, ins[i], nil)
			results[i] = got{status, resp, hdr}
		}()
	}
	wg.Wait()

	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("client %d: status %d", i, r.status)
		}
		if r.resp.Batched != 1 {
			t.Errorf("client %d: batched = %d, want 1", i, r.resp.Batched)
		}
		if v, ok := r.hdr["X-Sod2-Batch"]; ok {
			t.Errorf("client %d: X-Sod2-Batch header %q is retired", i, v)
		}
		sameOutputs(t, r.resp.Outputs, refs[i])
	}

	st := sess.Stats()
	if st.Admission.Admitted != n {
		t.Fatalf("admissions = %d, want %d (one per request)", st.Admission.Admitted, n)
	}
	if st.Admission.InFlight != 0 || st.Admission.Queued != 0 {
		t.Fatalf("admission leak: %+v", st.Admission)
	}
}

// TestBatchConfigIgnored: Config.Batch is declared but inert. A server
// configured with a batch window far longer than an inference still
// answers each of two concurrent requests on its own, before the window
// could have closed: Batched == 1, no batch header, its own admission
// and outputs bit-identical to a direct inference.
func TestBatchConfigIgnored(t *testing.T) {
	const window = 2 * time.Second
	_, sess, ts := newTestServer(t, sod2.SessionOptions{}, Config{Batch: BatchConfig{Window: window, MaxBatch: 8}})
	c := compileModel(t, "CodeBERT")
	url := ts.URL + "/v1/models/codebert/infer"
	ins := []map[string]*tensor.Tensor{sampleInputs(t, "CodeBERT", 20), sampleInputs(t, "CodeBERT", 21)}

	type got struct {
		status int
		resp   *InferResponse
		hdr    http.Header
		took   time.Duration
	}
	results := make([]got, len(ins))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			status, resp, _, hdr := postInfer(t, ts.Client(), url, ins[i], nil)
			results[i] = got{status, resp, hdr, time.Since(start)}
		}()
	}
	wg.Wait()

	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("client %d: status %d", i, r.status)
		}
		if r.took >= window {
			t.Errorf("client %d: answered after %v, not before the ignored %v window", i, r.took, window)
		}
		if r.resp.Batched != 1 {
			t.Errorf("client %d: batched = %d, want 1", i, r.resp.Batched)
		}
		if v, ok := r.hdr["X-Sod2-Batch"]; ok {
			t.Errorf("client %d: X-Sod2-Batch header %q is retired", i, v)
		}
		ref, _, err := c.Infer(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		sameOutputs(t, r.resp.Outputs, ref)
	}
	if st := sess.Stats(); st.Admission.Admitted != uint64(len(ins)) || st.Buckets != 0 || st.BucketMembers != 0 {
		t.Fatalf("admissions = %d, buckets = %d/%d; want %d and 0/0",
			st.Admission.Admitted, st.Buckets, st.BucketMembers, len(ins))
	}
}

// TestStreamingEventsCarryNoBatch: no event of the NDJSON stream has a
// "batched" field, with or without a configured batch window.
func TestStreamingEventsCarryNoBatch(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{Batch: BatchConfig{Window: time.Millisecond}})
	body, _ := json.Marshal(EncodeInputs(sampleInputs(t, "CodeBERT", 22)))
	resp, err := ts.Client().Post(ts.URL+"/v1/models/codebert/infer/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream accept: %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		var ev map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if _, ok := ev["batched"]; ok {
			t.Errorf("event %s carries the retired batched field", ev["event"])
		}
		last = string(ev["event"])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last != `"done"` {
		t.Fatalf("last event = %s, want done", last)
	}
}

// TestStreamingEndpoint pins the chunked NDJSON protocol: accepted,
// one output event per tensor, terminal done with the report — and the
// reassembled outputs are bit-identical to a direct inference.
func TestStreamingEndpoint(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	inputs := sampleInputs(t, "CodeBERT", 6)
	ref, _, err := compileModel(t, "CodeBERT").Infer(inputs)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(EncodeInputs(inputs))
	resp, err := ts.Client().Post(ts.URL+"/v1/models/codebert/infer/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("stream accept: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 || events[0].Event != "accepted" || events[len(events)-1].Event != "done" {
		t.Fatalf("event sequence = %v", events)
	}
	outs := make(map[string]*WireTensor)
	for _, ev := range events[1 : len(events)-1] {
		if ev.Event != "output" {
			t.Fatalf("mid-stream event %q, want output", ev.Event)
		}
		outs[ev.Name] = ev.Tensor
	}
	sameOutputs(t, outs, ref)
	if done := events[len(events)-1]; done.Report == nil {
		t.Fatalf("done event incomplete: %+v", done)
	}
}

// TestStreamingErrorEvent: a post-accept failure arrives as a terminal
// typed error event on the 200 stream, not a hung connection.
func TestStreamingErrorEvent(t *testing.T) {
	inj := faultinject.New(faultinject.KernelStall, 0)
	inj.Repeat = true
	inj.Delay = 50 * time.Millisecond
	_, _, ts := newTestServer(t, sod2.SessionOptions{Hooks: inj.Hooks()}, Config{})
	body, _ := json.Marshal(EncodeInputs(sampleInputs(t, "CodeBERT", 7)))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/models/codebert/infer/stream", bytes.NewReader(body))
	req.Header.Set(HeaderDeadline, "15")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last StreamEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
	}
	if last.Event != "error" || last.Error == nil {
		t.Fatalf("terminal event = %+v, want typed error", last)
	}
	if last.Error.Code != "deadline_exceeded" && last.Error.Code != "cancelled" {
		t.Fatalf("error code = %q, want deadline_exceeded", last.Error.Code)
	}
}

// TestDrainLifecycle pins graceful shutdown as seen from the wire:
// StartDraining flips /readyz to 503 and new work refuses with a typed
// 503 draining + Retry-After; Drain closes the sessions; probes stay up.
func TestDrainLifecycle(t *testing.T) {
	srv, sess, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	client := ts.Client()
	inputs := sampleInputs(t, "CodeBERT", 8)
	url := ts.URL + "/v1/models/codebert/infer"

	if status, _, _, _ := postInfer(t, client, url, inputs, nil); status != 200 {
		t.Fatalf("pre-drain infer: %d", status)
	}
	check := func(path string, want int) {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/readyz", 200)

	srv.StartDraining()
	check("/readyz", http.StatusServiceUnavailable)
	check("/healthz", 200) // liveness is not readiness

	status, _, eb, hdr := postInfer(t, client, url, inputs, nil)
	if status != http.StatusServiceUnavailable || eb.Code != "draining" {
		t.Fatalf("infer while draining: %d/%v, want 503/draining", status, eb)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("draining 503 must carry Retry-After")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain must be idempotent: %v", err)
	}
	if _, _, err := sess.InferConcurrentCtx(context.Background(), inputs); err == nil {
		t.Fatal("session must be closed after drain")
	}
	check("/statsz", 200)
}

// statszModel mirrors the /statsz wire schema the test needs.
type statszModel struct {
	Health  string            `json:"health"`
	Session sod2.SessionStats `json:"session"`
}

func readStatsz(t *testing.T, client *http.Client, base string) (statszBody, map[string]statszModel) {
	t.Helper()
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		statszBody
		Models map[string]statszModel `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	return body.statszBody, body.Models
}

// TestBreakerVisibleThroughAPI drives the self-healing cycle purely
// through HTTP: persistent kernel faults trip the per-model breaker
// (visible as quarantined in /statsz), and clean traffic heals it back
// to healthy — all without restarting the server.
func TestBreakerVisibleThroughAPI(t *testing.T) {
	inj := faultinject.New(faultinject.KernelError, 0)
	inj.Repeat = true
	var faultsOn bool
	var mu sync.Mutex
	hooks := inj.Hooks()
	gated := &exec.Hooks{PreKernel: func(n *graph.Node, in []*tensor.Tensor) error {
		mu.Lock()
		on := faultsOn
		mu.Unlock()
		if !on {
			return nil
		}
		return hooks.PreKernel(n, in)
	}}
	setFaults := func(on bool) { mu.Lock(); faultsOn = on; mu.Unlock() }

	_, _, ts := newTestServer(t, sod2.SessionOptions{Hooks: gated}, Config{})
	client := ts.Client()
	inputs := sampleInputs(t, "CodeBERT", 9)
	url := ts.URL + "/v1/models/codebert/infer"

	// The breaker opens on its fifth consecutive fault.
	setFaults(true)
	tripped := false
	for i := 0; i < 10 && !tripped; i++ {
		status, _, eb, _ := postInfer(t, client, url, inputs, nil)
		if status != http.StatusInternalServerError || eb.Code != "execution" {
			t.Fatalf("faulting request %d: %d/%v, want 500/execution", i, status, eb)
		}
		// Trips is the durable evidence: the state itself may already
		// have advanced to probation if the background re-verification
		// (which the execution-hook fault does not touch) won the race.
		_, models := readStatsz(t, client, ts.URL)
		m := models["codebert"]
		tripped = m.Session.Breaker.Trips >= 1 && m.Health != "healthy"
	}
	if !tripped {
		t.Fatal("breaker never tripped under persistent faults")
	}

	setFaults(false)
	healed := false
	deadline := time.Now().Add(10 * time.Second)
	for !healed && time.Now().Before(deadline) {
		if status, _, _, _ := postInfer(t, client, url, inputs, nil); status != 200 {
			t.Fatalf("clean traffic during heal: %d", status)
		}
		_, models := readStatsz(t, client, ts.URL)
		healed = models["codebert"].Health == "healthy"
		if !healed {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !healed {
		_, models := readStatsz(t, client, ts.URL)
		t.Fatalf("breaker never healed; health = %q", models["codebert"].Health)
	}
}

// TestStatszCounters: the wire counters and per-model stats are present
// and move with traffic.
func TestStatszCounters(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	client := ts.Client()
	inputs := sampleInputs(t, "CodeBERT", 11)
	postInfer(t, client, ts.URL+"/v1/models/codebert/infer", inputs, nil)
	client.Post(ts.URL+"/v1/models/codebert/infer", "application/json", strings.NewReader("junk"))

	body, models := readStatsz(t, client, ts.URL)
	if !body.Ready || body.Draining {
		t.Fatalf("statsz readiness wrong: %+v", body)
	}
	if body.Requests < 2 || body.Errors4xx < 1 {
		t.Fatalf("counters did not move: %+v", body)
	}
	m, ok := models["codebert"]
	if !ok || m.Health != "healthy" || m.Session.Requests < 1 {
		t.Fatalf("model stats missing or wrong: %+v", m)
	}
}

// TestStatszAdmissionSchema pins the admission object /statsz serves
// per model: the concurrency gate's counters and nothing else — no byte
// ledger fields.
func TestStatszAdmissionSchema(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	client := ts.Client()
	postInfer(t, client, ts.URL+"/v1/models/codebert/infer", sampleInputs(t, "CodeBERT", 12), nil)
	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Models map[string]struct {
			Session struct {
				Admission map[string]json.Number
			} `json:"session"`
		} `json:"models"`
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&body); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	adm := body.Models["codebert"].Session.Admission
	keys := make([]string, 0, len(adm))
	for k := range adm {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"Abandoned", "Admitted", "InFlight", "Queued", "ShedConcurrency"}
	if !slices.Equal(keys, want) {
		t.Fatalf("admission keys = %v, want %v", keys, want)
	}
	if adm["Admitted"] != "1" || adm["InFlight"] != "0" || adm["Queued"] != "0" {
		t.Fatalf("admission = %v, want 1 admitted and nothing in flight or queued", adm)
	}
}

// TestStatszModelSchema pins each model's /statsz entry to its health
// and session stats: no batcher block, even with a batch window
// configured.
func TestStatszModelSchema(t *testing.T) {
	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{Batch: BatchConfig{Window: time.Millisecond}})
	client := ts.Client()
	postInfer(t, client, ts.URL+"/v1/models/codebert/infer", sampleInputs(t, "CodeBERT", 13), nil)
	resp, err := client.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Models map[string]map[string]json.RawMessage `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	m, ok := body.Models["codebert"]
	if !ok {
		t.Fatalf("statsz models = %v, want codebert", body.Models)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"health", "session"}; !slices.Equal(keys, want) {
		t.Fatalf("model keys = %v, want %v", keys, want)
	}
}
