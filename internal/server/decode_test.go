package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tensor"

	sod2 "repro"
)

// referenceDecode is the request decode the server made with
// encoding/json, which DecodeRequest must match: Decode with
// DisallowUnknownFields, nothing but whitespace after the object, then
// DecodeInputs.
func referenceDecode(body []byte) (map[string]*tensor.Tensor, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req InferRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) != 0 {
		return nil, errors.New("trailing data after request object")
	}
	return req.DecodeInputs()
}

// onePassDecode is the server's decode: DecodeRequest, then DecodeInputs.
func onePassDecode(body []byte) (map[string]*tensor.Tensor, error) {
	req, err := DecodeRequest(body)
	if err != nil {
		return nil, err
	}
	return req.DecodeInputs()
}

// sameInputs demands the same input names, dtypes, shapes and value bits.
func sameInputs(got, want map[string]*tensor.Tensor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d inputs, want %d", len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			return fmt.Errorf("missing input %q", name)
		}
		if g.DType != w.DType || fmt.Sprint(g.Shape) != fmt.Sprint(w.Shape) {
			return fmt.Errorf("input %q: %v %v, want %v %v", name, g.DType, g.Shape, w.DType, w.Shape)
		}
		if len(g.F) != len(w.F) || len(g.I) != len(w.I) || len(g.B) != len(w.B) {
			return fmt.Errorf("input %q: data lengths %d/%d/%d, want %d/%d/%d",
				name, len(g.F), len(g.I), len(g.B), len(w.F), len(w.I), len(w.B))
		}
		for i := range w.F {
			if math.Float32bits(g.F[i]) != math.Float32bits(w.F[i]) {
				return fmt.Errorf("input %q: float_data[%d] = %#x, want %#x", name, i, math.Float32bits(g.F[i]), math.Float32bits(w.F[i]))
			}
		}
		for i := range w.I {
			if g.I[i] != w.I[i] {
				return fmt.Errorf("input %q: int_data[%d] = %d, want %d", name, i, g.I[i], w.I[i])
			}
		}
		for i := range w.B {
			if g.B[i] != w.B[i] {
				return fmt.Errorf("input %q: bool_data[%d] = %v, want %v", name, i, g.B[i], w.B[i])
			}
		}
	}
	return nil
}

// modelBody is the wire body of one sod2.NewSample of model name.
func modelBody(tb testing.TB, name string, size int64) []byte {
	tb.Helper()
	b, err := sod2.BuildModel(name)
	if err != nil {
		tb.Fatal(err)
	}
	if size == 0 {
		size = b.MinSize
	}
	body, err := json.Marshal(EncodeInputs(sod2.NewSample(b, size, 0.5, 7).Inputs))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodeEdgeBodies are hand-written bodies at the edges of the grammar
// encoding/json accepts for the request schema.
func decodeEdgeBodies() []string {
	one := func(fields string) string { return `{"inputs":{"x":{` + fields + `}}}` }
	f1 := func(v string) string { return one(`"dtype":"float32","shape":[1],"float_data":[` + v + `]`) }
	i1 := func(v string) string { return one(`"dtype":"int64","shape":[1],"int_data":[` + v + `]`) }
	named := func(name string) string {
		return `{"inputs":{"` + name + `":{"dtype":"float32","shape":[1],"float_data":[1]}}}`
	}
	return []string{
		"", " ", "null", "{}", "[]", `{"inputs":null}`, `{"inputs":{"x":null}}`,
		// Escapes and UTF-8 in names.
		named(`x`), named(`😀`), named(`\ud800`), named(`\udc00\ud800`),
		named(`\ud800A`), named(`\ud800\uZZZZ`), named(`a\"\\\/\b\f\n\r\tb`), named(`\'`),
		named("x\xff"), named("\xe2\x82"), named("caf\xc3\xa9"), named("tab\there"), named(`\u00`),
		// Numbers.
		f1("-0"), f1("1e-46"), f1("3.4028235e38"), f1("3.4028236e38"), f1("-3.4028236e38"), f1("1e39"),
		f1("01"), f1("+1"), f1(".5"), f1("1."), f1("1e"), f1("1e+"), f1("-"), f1("0x10"), f1("inf"),
		f1("NaN"), f1("1_0"), f1("1E+2"), f1("2.5e-3"), f1("0.1"), f1(`"1"`), f1("true"), f1("[1]"),
		i1("1.0"), i1("1e2"), i1("-0"), i1("9223372036854775807"), i1("9223372036854775808"),
		i1("-9223372036854775808"), i1("null"),
		one(`"dtype":"bool","shape":[2],"bool_data":[true,null]`), one(`"dtype":"bool","shape":[1],"bool_data":[1]`),
		// Case-folded and unknown keys.
		`{"INPUTS":{"x":{"DType":"float32","Shape":[1],"FLOAT_DATA":[1]}}}`,
		one(`"dtype":"float32","ſhape":[1],"float_data":[1]`), one(`"dtype":"float32","shape":[1],"float_dat":[1]`),
		one(`"dtype":"float32","shape":[1],"float_data":[1],"extra":null`), `{"inputs":{},"model":"x"}`,
		// Nulls.
		f1("null"), one(`"dtype":"float32","shape":[2],"float_data":[null,2]`), one(`"dtype":null,"shape":[0]`),
		one(`"dtype":"float32","dtype":null,"shape":[0]`), one(`"dtype":"float32","shape":[1],"shape":null`),
		one(`"dtype":"float32","shape":[1],"float_data":[1],"float_data":null`),
		// Duplicate keys: slices refill in place, maps merge.
		one(`"dtype":"float32","shape":[2],"shape":[1],"float_data":[5]`),
		one(`"dtype":"float32","shape":[3],"float_data":[1,2,3],"float_data":[4],"float_data":[null,null,null]`),
		one(`"dtype":"float32","shape":[2],"float_data":[1,2],"float_data":[],"float_data":[null,null]`),
		`{"inputs":{"x":{"dtype":"float32","shape":[1],"float_data":[1]}},"inputs":{"y":{"dtype":"int64","shape":[1],"int_data":[2]}}}`,
		`{"inputs":{"x":{"dtype":"float32","shape":[1],"float_data":[1]},"x":{"dtype":"int64","shape":[1],"int_data":[2]}}}`,
		// Field order, structure and whitespace.
		one(`"float_data":[1,2],"dtype":"float32","shape":[2]`), one(`"dtype":"float32","shape":[2],"float_data":[1,2],`),
		one(`"dtype":"float32","shape":[2],"float_data":[1,2,]`), one(`"dtype":"float32","shape":[2],"float_data":[1 2]`),
		" \t\r\n" + f1("1") + " \r\n\t", f1("1") + "\x00", f1("1") + "]", f1("1") + "}", f1("1") + `{"inputs":{}}`,
		one(`"dtype" : "float32" , "shape" : [ 1 ] , "float_data" : [ 1 ]`), "\xef\xbb\xbf" + f1("1"),
		one(`"dtype":"float32","shape":[1],"float_data":[1]`)[:30],
	}
}

// FuzzDecodeRequest is the differential check of DecodeRequest against
// encoding/json: both must accept or both refuse, and accepted inputs
// must agree on names, dtypes, shapes and every value's bits.
func FuzzDecodeRequest(f *testing.F) {
	for _, tc := range typedErrorCases(f) {
		f.Add([]byte(tc.body))
	}
	for _, name := range []string{"CodeBERT", "Conformer", "StableDiffusion"} {
		f.Add(modelBody(f, name, 0))
	}
	for _, body := range decodeEdgeBodies() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := referenceDecode(body)
		got, gerr := onePassDecode(body)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("encoding/json err = %v, one-pass err = %v on %q", werr, gerr, body)
		case gerr != nil:
			if !errors.Is(gerr, ErrBadRequest) {
				t.Fatalf("one-pass error %v does not wrap ErrBadRequest", gerr)
			}
		default:
			if err := sameInputs(got, want); err != nil {
				t.Fatalf("%v on %q", err, body)
			}
		}
	})
}

// TestDecodeRequestAgrees decodes one sample body of each of the ten
// models both ways: the tensors must be bit-identical.
func TestDecodeRequestAgrees(t *testing.T) {
	for _, b := range sod2.Models() {
		t.Run(b.Name, func(t *testing.T) {
			body := modelBody(t, b.Name, 0)
			want, err := referenceDecode(body)
			if err != nil {
				t.Fatal(err)
			}
			got, err := onePassDecode(body)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameInputs(got, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecodeRequestPresizeBounded: a maximal shape in a 100-byte body is
// refused as a 400 without allocating for the shape — the presized data
// slice is capped by the body length.
func TestDecodeRequestPresizeBounded(t *testing.T) {
	body := `{"inputs":{"x":{"dtype":"float32","shape":[16777216],"float_data":[1,2,3]}}}`
	body = strings.Replace(body, `"x"`, `"x"`+strings.Repeat(" ", 100-len(body)), 1)
	if len(body) != 100 {
		t.Fatalf("body is %d bytes, want 100", len(body))
	}

	_, _, ts := newTestServer(t, sod2.SessionOptions{}, Config{})
	resp, err := ts.Client().Post(ts.URL+"/v1/models/codebert/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}

	perRun := bytesPerRun(50, func() {
		if _, err := onePassDecode([]byte(body)); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("err = %v, want a bad request", err)
		}
	})
	if perRun >= 64<<10 {
		t.Fatalf("decode allocated %d bytes per run, want < 64 KiB", perRun)
	}
}

// TestDecodeRequestPresizeManyTensors: hostile shapes on many one-element
// tensors share one presize budget, so the decode allocates a small
// multiple of the body, not a body-sized slice per tensor.
func TestDecodeRequestPresizeManyTensors(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"inputs":{`)
	for i := 0; sb.Len() < 16<<10; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `"a%d":{"shape":[16777216],"int_data":[1]},"e%d":{"shape":[16777216],"float_data":[]}`, i, i)
	}
	sb.WriteString(`}}`)
	body := []byte(sb.String())

	perRun := bytesPerRun(10, func() {
		if _, err := DecodeRequest(body); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 16 * uint64(len(body)); perRun >= limit {
		t.Fatalf("decode of a %d-byte body allocated %d bytes per run, want < %d", len(body), perRun, limit)
	}
}

// TestInferBodyReadBounded: a client that declares a body of the full
// cap and sends two bytes makes the server allocate about
// firstReadBytes, not the declared length.
func TestInferBodyReadBounded(t *testing.T) {
	const limit = 8 << 20
	perRun := bytesPerRun(10, func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/models/m/infer", strings.NewReader("{}"))
		r.ContentLength = limit
		body, err := readBody(httptest.NewRecorder(), r, limit)
		if err != nil || string(body) != "{}" {
			t.Fatalf("readBody = %q, %v", body, err)
		}
	})
	// firstReadBytes is 1 MiB; the race detector's builds allocate a
	// bytes.Buffer's first grow twice, so the bound leaves room for that.
	if perRun >= limit/2 {
		t.Fatalf("readBody allocated %d bytes per run for a 2-byte body, want < %d", perRun, limit/2)
	}
}

// bytesPerRun returns the bytes f allocates per call, averaged over runs.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

var decodeSink *InferRequest

// BenchmarkDecodeRequest times the decode of one SkipNet [1,3,224,224]
// body (1.64 MB): the one-pass decoder against the encoding/json decode
// it replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	body := modelBody(b, "SkipNet", 224)
	b.Run("onepass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req, err := DecodeRequest(body)
			if err != nil {
				b.Fatal(err)
			}
			decodeSink = req
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			var req InferRequest
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
			decodeSink = &req
		}
	})
}
