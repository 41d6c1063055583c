package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/histogram"
	"repro/internal/obs"
	"repro/internal/plan"
)

// encodeOracle is what writeJSON sent before histogram bodies had their
// own encoder: encoding/json's Encoder with its defaults.
func encodeOracle(body any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(body)
	return buf.Bytes(), err
}

// Palettes the body filler draws from: the strings escaping must get
// right (plans carry &&, < and >), the floats at encoding/json's format
// switches, and counts either side of the single-digit fast path.
var (
	fillStrings = []string{
		"", "lwfa", "px > 1e10 && y < 0", "!(x <= 3) || id in (1, 2)",
		"<script>&amp;</script>", "quote \" back \\ slash", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"\u2028 \u2029", "café 日本 \U0001F600", "bad \xff\xfe utf8 \xc3", "\ufffd",
	}
	fillFloats = []float64{
		0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 9.999999e-7, -1e-6, 1e-7, 1.5e-9,
		1e20, 1e21, -1e21, 9.99e20, 123456789e12, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		1.0 / 3, 8e10,
	}
	fillUints = []uint64{0, 1, 9, 10, 99, 12345, math.MaxUint64}
	fillInts  = []int{0, 1, -1, 7, 4095, -123456}
)

// fillBytes hands out the fuzz input a byte at a time, zeros once spent.
type fillBytes struct {
	b []byte
	i int
}

func (f *fillBytes) next() int {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return int(f.b[f.i-1])
}

// fillTrace and fillExplain are the nested values a body may carry; the
// encoder hands them to encoding/json, so fixed ones with escapable
// strings suffice.
func fillTrace() *obs.SpanData {
	return &obs.SpanData{Name: "request", DurationMS: 1.5e-7, Attrs: map[string]string{"q": "a < b && c > d"},
		Children: []*obs.SpanData{{Name: "serialize", StartUnixN: 42}}}
}

func fillExplain() *ExplainBody {
	return &ExplainBody{Endpoint: "hist2d", Mode: "local", Shards: 1, Outcome: "computed",
		FailedShards: []int{2}, AdmissionWaitMS: 1e21}
}

// fill sets every field of the struct v points at from in, recursing into
// embedded structs, so a field added to a histogram body or ResponseMeta
// is exercised without touching this test — and one of a kind it does not
// know fails it.
func fill(t *testing.T, v reflect.Value, in *fillBytes, nonFinite bool) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue // a body's histogram: the tests that need one set it
		}
		f := v.Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(fillStrings[in.next()%len(fillStrings)])
		case reflect.Int:
			f.SetInt(int64(fillInts[in.next()%len(fillInts)]))
		case reflect.Uint64:
			f.SetUint(fillUints[in.next()%len(fillUints)])
		case reflect.Bool:
			f.SetBool(in.next()%2 == 1)
		case reflect.Float64:
			f.SetFloat(fillFloat(in, nonFinite))
		case reflect.Slice:
			n := in.next() % 6
			if n == 0 {
				f.Set(reflect.Zero(f.Type())) // nil
				continue
			}
			s := reflect.MakeSlice(f.Type(), n-1, n-1) // n == 1: empty, not nil
			for j := 0; j < s.Len(); j++ {
				switch e := s.Index(j); e.Kind() {
				case reflect.Float64:
					e.SetFloat(fillFloat(in, nonFinite))
				case reflect.Uint64:
					e.SetUint(fillUints[in.next()%len(fillUints)])
				case reflect.Int:
					e.SetInt(int64(fillInts[in.next()%len(fillInts)]))
				default:
					t.Fatalf("fill: no values for a slice of %v", e.Type())
				}
			}
			f.Set(s)
		case reflect.Pointer:
			if in.next()%2 == 0 {
				f.Set(reflect.Zero(f.Type()))
				continue
			}
			switch f.Type() {
			case reflect.TypeOf((*obs.SpanData)(nil)):
				f.Set(reflect.ValueOf(fillTrace()))
			case reflect.TypeOf((*ExplainBody)(nil)):
				f.Set(reflect.ValueOf(fillExplain()))
			default:
				t.Fatalf("fill: no values for %v", f.Type())
			}
		case reflect.Struct:
			fill(t, f, in, nonFinite)
		default:
			t.Fatalf("fill: no values for field %s of kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// fillFloat draws a float; with nonFinite it sometimes draws NaN or ±Inf,
// which both encoders must refuse.
func fillFloat(in *fillBytes, nonFinite bool) float64 {
	k := in.next()
	if nonFinite && k%31 == 30 {
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[in.next()%3]
	}
	return fillFloats[k%len(fillFloats)]
}

// histJSON is a histogram body as a miss writes it: the answer part its
// flight encodes, then its meta.
func histJSON(t *testing.T, body any) ([]byte, error) {
	t.Helper()
	var answer []byte
	var err error
	var m ResponseMeta
	switch b := body.(type) {
	case Hist1DBody:
		answer, err = b.answerJSON()
		m = b.ResponseMeta
	case Hist2DBody:
		answer, err = b.answerJSON()
		m = b.ResponseMeta
	default:
		t.Fatalf("histJSON: %T is not a histogram body", body)
	}
	if err != nil {
		return nil, err
	}
	return appendMeta(answer, &m)
}

// checkEncoding asserts the histogram encoder writes exactly what
// encoding/json writes for body, with its histogram set (setHist), and
// fails exactly when it fails.
func checkEncoding(t *testing.T, body any) {
	t.Helper()
	switch b := body.(type) {
	case Hist1DBody:
		b.setHist()
		body = b
	case Hist2DBody:
		b.setHist()
		body = b
	}
	want, wantErr := encodeOracle(body)
	got, err := histJSON(t, body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%T: error %v, encoding/json's %v", body, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%T differs from encoding/json:\n got %s\nwant %s", body, got, want)
	}
}

// setHist gives a test body the histogram answerJSON writes the counts
// of: its own Counts, encoded, over edges of as many bins (answerJSON
// writes the body's own edges). A served body always carries a
// histogram, whose counts are a slice (an empty one for no bins), so a
// nil Counts becomes the empty slice before the body meets its oracle.
func (b *Hist1DBody) setHist() {
	if b.Counts == nil {
		b.Counts = []uint64{}
	}
	b.hist = (&histogram.Hist1D{Var: b.Var, Edges: make([]float64, len(b.Counts)+1), Counts: b.Counts}).Cells()
}

// setHist is Hist1DBody.setHist for the 2D body, its counts one row.
func (b *Hist2DBody) setHist() {
	if b.Counts == nil {
		b.Counts = []uint64{}
	}
	b.hist = (&histogram.Hist2D{XVar: b.XVar, YVar: b.YVar, XEdges: make([]float64, len(b.Counts)+1), YEdges: make([]float64, 2),
		Counts: b.Counts}).Cells()
}

// checkStoredAnswer encodes the answer part of the histogram body b points
// at once, as a cache flight does, then finishes it with two to four
// metas drawn from in, as the hits on that entry do. Each whole body —
// the stored answer followed by appendMeta — equals encoding/json of the
// body with that meta, and fails exactly when encoding/json fails: a NaN
// edge fails the answer, a NaN elapsed_ms (the 500 path) only its meta.
func checkStoredAnswer(t *testing.T, b any, in *fillBytes, nonFinite bool) {
	t.Helper()
	var answer []byte
	var answerErr error
	switch b := b.(type) {
	case *Hist1DBody:
		b.setHist()
		answer, answerErr = b.answerJSON()
	case *Hist2DBody:
		b.setHist()
		answer, answerErr = b.answerJSON()
	default:
		t.Fatalf("checkStoredAnswer: %T is not a histogram body", b)
	}
	// The same counts as the sum of two decoded partials write the same
	// answer part.
	var cellsAnswer []byte
	var cellsErr error
	switch b := b.(type) {
	case *Hist1DBody:
		if len(b.Counts) > 0 {
			c := *b
			c.hist = cellsForm1(t, b.Counts)
			cellsAnswer, cellsErr = c.answerJSON()
		}
	case *Hist2DBody:
		if len(b.Counts) > 0 {
			c := *b
			c.hist = cellsForm2(t, b.Counts)
			cellsAnswer, cellsErr = c.answerJSON()
		}
	}
	if cellsAnswer != nil || cellsErr != nil {
		if (cellsErr != nil) != (answerErr != nil) || !bytes.Equal(cellsAnswer, answer) {
			t.Fatalf("%T: the cells form's answer differs (%v, %v):\n got %s\nwant %s", b, cellsErr, answerErr, cellsAnswer, answer)
		}
	}
	body := reflect.ValueOf(b).Elem()
	meta := body.FieldByName("ResponseMeta")
	for n := 2 + in.next()%3; n > 0; n-- {
		fill(t, meta, in, nonFinite)
		m := meta.Addr().Interface().(*ResponseMeta)
		if nonFinite && in.next()%4 == 0 {
			m.ElapsedMS = math.NaN()
		}
		got, err := answer, answerErr
		if err == nil {
			got, err = appendMeta(slices.Clone(answer), m)
		}
		want, wantErr := encodeOracle(body.Interface())
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%T: stored answer + meta: error %v, encoding/json's %v", b, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%T: stored answer + meta differs from encoding/json:\n got %s\nwant %s", b, got, want)
		}
	}
}

// cellsForm1 is counts as a 1D histogram in the cells form: the sum of two
// partials that crossed the wire, each holding about half of every count.
func cellsForm1(t *testing.T, counts []uint64) *histogram.Cells1D {
	t.Helper()
	e := histogram.UniformEdges(0, 1, len(counts))
	sum := &histogram.Cells1D{Var: "v", Edges: e}
	for k := uint64(0); k < 2; k++ {
		part := &histogram.Hist1D{Var: "v", Edges: e, Counts: make([]uint64, len(counts))}
		for i, c := range counts {
			part.Counts[i] = c/2 + k*(c%2)
		}
		enc, err := part.Cells().AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		r := histogram.NewWireReader(enc)
		if err := sum.Merge(r.Cells1D()); err != nil || r.Close() != nil {
			t.Fatalf("cells form of %v: %v", counts, err)
		}
	}
	return sum
}

// cellsForm2 is counts as a 2D histogram of one row in the cells form:
// the sum of a partial that crossed the wire and an empty one.
func cellsForm2(t *testing.T, counts []uint64) *histogram.Cells2D {
	t.Helper()
	xe, ye := histogram.UniformEdges(0, 1, len(counts)), []float64{0, 1}
	enc, err := (&histogram.Hist2D{XVar: "v", YVar: "w", XEdges: xe, YEdges: ye, Counts: counts}).Cells().AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	r := histogram.NewWireReader(enc)
	part := r.Cells2D()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	sum := &histogram.Cells2D{XVar: "v", YVar: "w", XEdges: xe, YEdges: ye}
	for _, p := range []*histogram.Cells2D{part, {XVar: "v", YVar: "w", XEdges: xe, YEdges: ye}} {
		if err := sum.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	return sum
}

// FuzzHistBodyJSON is the differential oracle for the histogram body
// encoder: for bodies with every field drawn from escaping, float-format
// and nil-versus-empty edge cases, an answer part encoded once and
// finished with several metas equals json.NewEncoder(w).Encode's bytes
// for each whole body, and the encoder refuses NaN and ±Inf exactly when
// encoding/json does. The seed corpus is testdata/fuzz/FuzzHistBodyJSON.
func FuzzHistBodyJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fillBytes{b: data}
		nonFinite := in.next()%4 == 0
		var b1 Hist1DBody
		fill(t, reflect.ValueOf(&b1).Elem(), in, nonFinite)
		checkStoredAnswer(t, &b1, in, nonFinite)
		var b2 Hist2DBody
		fill(t, reflect.ValueOf(&b2).Elem(), in, nonFinite)
		checkStoredAnswer(t, &b2, in, nonFinite)
	})
}

// TestHistBodyJSONRandom runs the fuzz body over 2 000 pseudo-random
// inputs on every plain go test, beyond the committed seeds.
func TestHistBodyJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		in := &fillBytes{b: data}
		nonFinite := i%8 == 0
		var b1 Hist1DBody
		fill(t, reflect.ValueOf(&b1).Elem(), in, nonFinite)
		checkStoredAnswer(t, &b1, in, nonFinite)
		var b2 Hist2DBody
		fill(t, reflect.ValueOf(&b2).Elem(), in, nonFinite)
		checkStoredAnswer(t, &b2, in, nonFinite)
	}
}

// TestHistBodyJSONCases pins the named edge cases: HTML-escaped plans, −0
// and the 1e-6 / 1e21 format switches, nil versus empty edges, and a
// ResponseMeta with every optional field set.
func TestHistBodyJSONCases(t *testing.T) {
	meta := ResponseMeta{
		Outcome: "hit", Degraded: true, DegradedMode: "coarse-cache", Partial: true,
		FailedSteps: []int{1, 3}, FailedShards: []int{0}, ElapsedMS: 0.25,
		Trace: fillTrace(), Explain: fillExplain(),
	}
	edges := []float64{math.Copysign(0, -1), 1e-6, 9.9e-7, 1e21, 9.9e20, -1e-7}
	for _, body := range []any{
		Hist1DBody{Dataset: "d", Plan: "px > 1e10 && (y < 0 || x > 5)", Edges: edges, Counts: []uint64{0, 7, 10, 1 << 40, 3}},
		Hist1DBody{Plan: "<&>", Edges: []float64{}, Counts: []uint64{}, ResponseMeta: meta},
		Hist1DBody{},
		Hist2DBody{Plan: "a <= 1", XEdges: edges, YEdges: nil, Counts: []uint64{}, ResponseMeta: meta},
		Hist2DBody{XEdges: []float64{}, ResponseMeta: ResponseMeta{FailedSteps: []int{}, Trace: &obs.SpanData{}}},
		Hist2DBody{XEdges: []float64{0, 1}, ResponseMeta: ResponseMeta{ElapsedMS: math.NaN()}},
	} {
		checkEncoding(t, body)
	}
}

// TestWriteBodyEncodeBeforeStatus: a body that cannot be encoded is a 500
// naming the error, never a 200 with an empty body — on the encoding/json
// path (a NaN in /v1/vars) and on a stored answer whose meta is
// unencodable alike, and a histogram whose answer is unencodable (a NaN
// edge) fails its flight with that error — while an encodable body is
// sent byte-for-byte as encoding/json would.
func TestWriteBodyEncodeBeforeStatus(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	stored := Hist2DBody{Plan: "x < 1 && y > 2", XEdges: []float64{0, 1}, YEdges: []float64{0, 1}, Counts: []uint64{4}}
	stored.setHist()
	answer, err := stored.answerJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []any{
		VarsBody{Dataset: "d", Vars: []VarInfo{{Name: "px", Min: math.NaN(), Max: 1}}},
		answerBody{answer, ResponseMeta{Outcome: "hit", ElapsedMS: math.NaN()}},
	} {
		w := httptest.NewRecorder()
		writeBody(r, w, body)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("%T: status %d, body %q; want 500", body, w.Code, w.Body)
		}
		var eb ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "unsupported value") {
			t.Fatalf("%T: body %q does not name the encoding error (%v)", body, w.Body, err)
		}
	}
	o := &op{answer: func(res *plan.Result) ([]byte, error) {
		b := Hist2DBody{XEdges: res.Hist2.XEdges, YEdges: res.Hist2.YEdges, hist: res.Hist2}
		return b.answerJSON()
	}}
	nan := &plan.Result{Hist2: (&histogram.Hist2D{XEdges: []float64{0, 1}, YEdges: []float64{math.NaN(), 1}, Counts: []uint64{1}}).Cells()}
	_, err = o.flight(func(context.Context) (*plan.Result, error) { return nan, nil })(context.Background())
	if err == nil || !strings.HasPrefix(err.Error(), "encode response: ") || !strings.Contains(err.Error(), "unsupported value") {
		t.Fatalf("flight of a NaN edge: error %v, want the encoding error", err)
	}

	withMeta := stored
	withMeta.ResponseMeta = ResponseMeta{Outcome: "hit", Partial: true, FailedShards: []int{2}, ElapsedMS: 0.5}
	for _, body := range []any{
		VarsBody{Dataset: "d", Vars: []VarInfo{{Name: "px", Min: 0, Max: 1}}},
		answerBody{answer, withMeta.ResponseMeta},
	} {
		w := httptest.NewRecorder()
		writeBody(r, w, body)
		oracle := body
		if _, ok := body.(answerBody); ok {
			oracle = withMeta
		}
		want, _ := encodeOracle(oracle)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want) || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%T: status %d, type %q, body %q; want 200 %q", body, w.Code, w.Header().Get("Content-Type"), w.Body, want)
		}
	}
}

// discardWriter is a ResponseWriter that drops the body, so
// BenchmarkWriteBody times encoding alone.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkWriteBody serializes a 2D histogram the way a miss does — its
// answer part in the cache flight, then its meta in the write stage — at
// 256² (the drill-down default) and 1024². Counts follow a sparse,
// heavy-tailed shape like a particle density, in one cell of three, or in
// one of a hundred ("-1pct", mostly zero). "-merge3" is the frontend's
// case: the 1024² counts as the sum of three decoded partials, written
// from their encodings through one pooled grid.
func BenchmarkWriteBody(b *testing.B) {
	for _, c := range []struct {
		n, every int
		merge    bool
		name     string
	}{{256, 3, false, "256x256"}, {1024, 3, false, "1024x1024"}, {1024, 100, false, "1024x1024-1pct"}, {1024, 3, true, "1024x1024-merge3"}} {
		n := c.n
		rng := rand.New(rand.NewSource(int64(n)))
		body := Hist2DBody{
			Dataset: "lwfa", Step: 7, Plan: "px > 8.5e10 && y < 1e-4", Backend: "fastbit",
			XVar: "x", YVar: "px", Binning: "uniform",
			XEdges: make([]float64, n+1), YEdges: make([]float64, n+1), Counts: make([]uint64, n*n),
			ResponseMeta: ResponseMeta{Outcome: "computed", ElapsedMS: 12.5},
		}
		for i := range body.XEdges {
			body.XEdges[i] = 1e-3 * float64(i) / float64(n)
			body.YEdges[i] = -3e11 + 6e11*float64(i)/float64(n)
		}
		for i := range body.Counts {
			if rng.Intn(c.every) == 0 {
				body.Counts[i] = uint64(rng.ExpFloat64() * 40)
			}
		}
		body.setHist()
		if c.merge {
			body.hist = &histogram.Cells2D{XVar: "x", YVar: "px", XEdges: body.XEdges, YEdges: body.YEdges}
			for k := 0; k < 3; k++ {
				part := &histogram.Hist2D{XVar: "x", YVar: "px", XEdges: body.XEdges, YEdges: body.YEdges, Counts: make([]uint64, n*n)}
				for i, v := range body.Counts {
					part.Counts[i] = v / 3
					if k == 0 {
						part.Counts[i] += v % 3
					}
				}
				enc, err := part.Cells().AppendWire(nil)
				if err != nil {
					b.Fatal(err)
				}
				r := histogram.NewWireReader(enc)
				if err := body.hist.Merge(r.Cells2D()); err != nil || r.Close() != nil {
					b.Fatal(err)
				}
			}
		}
		r := httptest.NewRequest(http.MethodGet, "/v1/hist2d", nil)
		o := &op{answer: func(*plan.Result) ([]byte, error) { return body.answerJSON() }}
		miss := o.flight(func(context.Context) (*plan.Result, error) { return &plan.Result{}, nil })
		b.Run(c.name, func(b *testing.B) {
			w := discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := miss(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				writeBody(r, w, storedAnswer(res, body.ResponseMeta))
			}
		})
	}
}

// hist2DPath is the request the stored-answer tests drive: an x–px
// hist2d at bins² under cond.
func hist2DPath(bins int, cond string) string {
	return fmt.Sprintf("/v1/hist2d?x=x&y=px&xbins=%d&ybins=%d&q=%s", bins, bins, url.QueryEscape(cond))
}

// parentHist2D is the body the pipeline built before answers were stored:
// the plan's dense histogram (or the index-only one) for path, shaped by
// the request's own parse, with the meta the response carried.
func parentHist2D(t *testing.T, s *Server, path string, indexOnly bool, m ResponseMeta) Hist2DBody {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	req, herr := s.parseRequest(r, false)
	if herr != nil {
		t.Fatal(herr)
	}
	spec, herr := hist2DSpec(r, req.sn)
	if herr != nil {
		t.Fatal(herr)
	}
	var h *histogram.Hist2D
	var err error
	if indexOnly {
		h, err = req.st.Histogram2DIndexOnlyCtx(context.Background(), req.expr, spec.XVar, spec.YVar)
	} else {
		pq := req.planQuery(plan.OpHist2D)
		pq.Spec2 = spec
		var res *plan.Result
		res, err = s.execPlan(context.Background(), req, pq)
		if err == nil {
			h = res.Hist2.Dense()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return Hist2DBody{
		Dataset: req.d.name, Step: req.t, Plan: req.plan, Backend: req.backend.String(),
		XVar: spec.XVar, YVar: spec.YVar, Binning: spec.Binning.String(),
		XEdges: h.XEdges, YEdges: h.YEdges, Counts: h.Counts, Total: h.Total(),
		ResponseMeta: m,
	}
}

// mustGet fetches path, which must answer 200.
func mustGet(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	code, raw := get(t, ts, path, nil)
	if code != 200 {
		t.Fatalf("%s: %d %s", path, code, raw)
	}
	return raw
}

// checkParentBody asserts raw is byte-for-byte encoding/json of the body
// the parent pipeline built for answerPath (whose answer the response
// carries) under the response's own meta, which must show outcome and
// degraded mode.
func checkParentBody(t *testing.T, s *Server, what, raw, answerPath string, indexOnly bool, outcome, degraded string) {
	t.Helper()
	var got Hist2DBody
	if err := json.Unmarshal([]byte(raw), &got); err != nil {
		t.Fatalf("%s: %v in %.200s", what, err, raw)
	}
	if got.Outcome != outcome || got.DegradedMode != degraded {
		t.Fatalf("%s: outcome %q degraded %q, want %q %q", what, got.Outcome, got.DegradedMode, outcome, degraded)
	}
	want, err := encodeOracle(parentHist2D(t, s, answerPath, indexOnly, got.ResponseMeta))
	if err != nil {
		t.Fatal(err)
	}
	if raw != string(want) {
		t.Fatalf("%s: body differs from the parent's (%d vs %d bytes):\n got %.300s\nwant %.300s", what, len(raw), len(want), raw, want)
	}
}

// TestHistHitWritesStoredAnswer: a histogram's answer is encoded once, in
// its cache flight, and written on every path that serves it — computed,
// hit, hit with an explain or a trace, a coalesced pair, a coarse-cache
// rescue and an index-only rescue — each body byte-identical to
// encoding/json of the body the pipeline built before answers were
// stored. A 256² hit then allocates a few KiB of request bookkeeping, not
// its ~150 KB body.
func TestHistHitWritesStoredAnswer(t *testing.T) {
	t.Run("pipeline", checkPipelineWritesStoredAnswer)
	t.Run("rescues", checkRescuesWriteStoredAnswer)
}

func checkPipelineWritesStoredAnswer(t *testing.T) {
	s, ts := testServer(t, Config{})
	path := hist2DPath(256, "px > 0")
	for _, c := range []struct{ suffix, outcome string }{
		{"", "computed"}, {"", "hit"}, {"&debug=explain", "hit"}, {"&debug=trace", "hit"},
	} {
		code, raw := get(t, ts, path+c.suffix, nil)
		if code != 200 {
			t.Fatalf("%s: %d %s", c.outcome, code, raw)
		}
		checkParentBody(t, s, c.outcome+c.suffix, raw, path, false, c.outcome, "")
	}

	// The entry holds the answer part in place of the dense counts, and is
	// charged the bytes it holds.
	o, herr := s.hist2DOp(httptest.NewRequest(http.MethodGet, path, nil))
	if herr != nil {
		t.Fatal(herr)
	}
	val, ok := s.cache.Peek(o.key)
	res, _ := val.(*plan.Result)
	if !ok || res == nil || res.Hist2 != nil || len(res.Answer) == 0 || !strings.HasPrefix(mustGet(t, ts, path), string(res.Answer)) {
		t.Fatalf("cache entry for %s holds %+v, want the answer bytes alone", path, val)
	}
	if st := s.cache.Stats(); st.Entries != 1 || st.Bytes != res.CacheBytes(o.key) {
		t.Fatalf("cache stats %+v for one %d-byte answer", st, len(res.Answer))
	}

	// A coalesced pair: both requests wait on one flight, held open here.
	other := hist2DPath(256, "px > 1e9")
	o, herr = s.hist2DOp(httptest.NewRequest(http.MethodGet, other, nil))
	if herr != nil {
		t.Fatal(herr)
	}
	open := make(chan struct{})
	flightDone := make(chan error, 1)
	go func() {
		_, _, err := s.cacheDo(context.Background(), o.key, o.flight(func(ctx context.Context) (*plan.Result, error) {
			<-open
			return o.exec(ctx)
		}))
		flightDone <- err
	}()
	for s.cache.Stats().Inflight == 0 {
		time.Sleep(time.Millisecond)
	}
	raws := make(chan string, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + other)
			if err != nil {
				raws <- err.Error()
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if resp.StatusCode != 200 || err != nil {
				raw = fmt.Appendf(nil, "status %d (%v): %s", resp.StatusCode, err, raw)
			}
			raws <- string(raw)
		}()
	}
	for s.cache.Stats().Coalesced < 2 {
		time.Sleep(time.Millisecond)
	}
	close(open)
	if err := <-flightDone; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		checkParentBody(t, s, "coalesced", <-raws, other, false, "coalesced", "")
	}

	// The hit writes the stored bytes: least of three, with the collector
	// off so no GC cycle lands inside a measurement.
	w := discardWriter{h: http.Header{}}
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := discardWriter{h: http.Header{}}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s.ServeHTTP(w, r)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("a 256² hit allocated %d B", least)
	if least > 16<<10 {
		t.Errorf("a 256² hit allocated %d B, want ≤ 16 KiB", least)
	}
}

// checkRescuesWriteStoredAnswer: both brownout rungs write stored answers
// — the coarse rung the coarser entry's bytes, the index-only rung those
// its own flight encoded.
func checkRescuesWriteStoredAnswer(t *testing.T) {
	s, ts := overloadedServer(t)
	path := hist2DPath(256, "px > 0")
	if code, raw := get(t, ts, path, nil); code != 200 {
		t.Fatalf("warmup: %d %s", code, raw)
	}
	forceBrownout(s, true)
	release := occupySlot(t, s)
	defer release()

	code, raw := get(t, ts, hist2DPath(512, "px > 0"), nil)
	if code != 200 {
		t.Fatalf("coarse rescue: %d %s", code, raw)
	}
	checkParentBody(t, s, "coarse rescue", raw, path, false, "hit", degradedCoarse)

	cold := hist2DPath(256, "px > 1e9")
	for _, outcome := range []string{"computed", "hit"} {
		code, raw = get(t, ts, cold, nil)
		if code != 200 {
			t.Fatalf("index-only rescue: %d %s", code, raw)
		}
		checkParentBody(t, s, "index-only rescue "+outcome, raw, cold, true, outcome, degradedIndexOnly)
	}
}

// TestContentLength: every JSON body goes out with a Content-Length equal
// to its length — a computed histogram, a hit on it, and an error body —
// rather than chunked.
func TestContentLength(t *testing.T) {
	_, ts := testServer(t, Config{})
	path := hist2DPath(256, "px > 0")
	for _, c := range []struct {
		what, path string
		status     int
	}{
		{"miss", path, 200}, {"hit", path, 200}, {"error", "/v1/hist2d?x=nope&y=px", 404},
	} {
		resp, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d", c.what, resp.StatusCode, c.status)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) || len(resp.TransferEncoding) > 0 {
			t.Fatalf("%s: Content-Length %q, transfer encoding %v, body %d bytes", c.what, cl, resp.TransferEncoding, len(body))
		}
	}
}

// BenchmarkHistHit serves a resident 256² hist2d key through ServeHTTP:
// the whole server-side cost of redrawing a panel already on screen.
func BenchmarkHistHit(b *testing.B) {
	s, _ := testServer(b, Config{})
	path := hist2DPath(256, "px > 0")
	s.ServeHTTP(discardWriter{h: http.Header{}}, httptest.NewRequest(http.MethodGet, path, nil))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ServeHTTP(discardWriter{h: http.Header{}}, httptest.NewRequest(http.MethodGet, path, nil))
	}
}
