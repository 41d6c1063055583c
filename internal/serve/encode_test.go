package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
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

// checkEncoding asserts the histogram encoder writes exactly what
// encoding/json writes for body, and fails exactly when it fails.
func checkEncoding(t *testing.T, body any) {
	t.Helper()
	want, wantErr := encodeOracle(body)
	got, err := encodeBody(body)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%T: error %v, encoding/json's %v", body, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%T differs from encoding/json:\n got %s\nwant %s", body, got, want)
	}
}

// FuzzHistBodyJSON is the differential oracle for the histogram body
// encoder: for bodies with every field drawn from escaping, float-format
// and nil-versus-empty edge cases, its bytes equal
// json.NewEncoder(w).Encode's, and it refuses NaN and ±Inf exactly when
// encoding/json does. The seed corpus is testdata/fuzz/FuzzHistBodyJSON.
func FuzzHistBodyJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fillBytes{b: data}
		nonFinite := in.next()%4 == 0
		var b1 Hist1DBody
		fill(t, reflect.ValueOf(&b1).Elem(), in, nonFinite)
		checkEncoding(t, b1)
		var b2 Hist2DBody
		fill(t, reflect.ValueOf(&b2).Elem(), in, nonFinite)
		checkEncoding(t, b2)
	})
}

// TestHistBodyJSONRandom runs the fuzz body over 2 000 pseudo-random
// inputs on every plain go test, beyond the committed seeds.
func TestHistBodyJSONRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		rng.Read(data)
		in := &fillBytes{b: data}
		nonFinite := i%8 == 0
		var b1 Hist1DBody
		fill(t, reflect.ValueOf(&b1).Elem(), in, nonFinite)
		checkEncoding(t, b1)
		var b2 Hist2DBody
		fill(t, reflect.ValueOf(&b2).Elem(), in, nonFinite)
		checkEncoding(t, b2)
	}
}

// TestHistBodyJSONCases pins the named edge cases: HTML-escaped plans, −0
// and the 1e-6 / 1e21 format switches, nil versus empty slices, and a
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
	} {
		checkEncoding(t, body)
	}
}

// TestWriteBodyEncodeBeforeStatus: a body that cannot be encoded is a 500
// naming the error, never a 200 with an empty body — on the encoding/json
// path (a NaN in /v1/vars) and on the histogram encoder's alike — while an
// encodable one is sent byte-for-byte as encoding/json would.
func TestWriteBodyEncodeBeforeStatus(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	for _, body := range []any{
		VarsBody{Dataset: "d", Vars: []VarInfo{{Name: "px", Min: math.NaN(), Max: 1}}},
		Hist1DBody{Edges: []float64{0, math.Inf(1)}, Counts: []uint64{1}},
		Hist2DBody{XEdges: []float64{0, 1}, YEdges: []float64{math.NaN(), 1}, Counts: []uint64{1}},
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
	for _, body := range []any{
		VarsBody{Dataset: "d", Vars: []VarInfo{{Name: "px", Min: 0, Max: 1}}},
		Hist2DBody{Plan: "x < 1 && y > 2", XEdges: []float64{0, 1}, YEdges: []float64{0, 1}, Counts: []uint64{4}},
	} {
		w := httptest.NewRecorder()
		writeBody(r, w, body)
		want, _ := encodeOracle(body)
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

// BenchmarkWriteBody serializes a 2D histogram answer the way the
// pipeline's write stage does: 256² (the drill-down default) and 1024².
// Counts follow a sparse, heavy-tailed shape like a particle density.
func BenchmarkWriteBody(b *testing.B) {
	for _, n := range []int{256, 1024} {
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
			if rng.Intn(3) == 0 {
				body.Counts[i] = uint64(rng.ExpFloat64() * 40)
			}
		}
		r := httptest.NewRequest(http.MethodGet, "/v1/hist2d", nil)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			w := discardWriter{h: http.Header{}}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeBody(r, w, body)
			}
		})
	}
}
