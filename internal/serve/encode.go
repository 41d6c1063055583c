package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// encodeBody renders a response body as JSON, exactly the bytes
// json.NewEncoder(w).Encode(body) writes, trailing newline included. The
// histogram bodies, which carry nearly every byte the service sends — a
// 256² answer is 65 536 counts — never come here: their cache flight
// encodes the answer part once (answerJSON) and each response appends its
// meta (appendMeta), both without reflection (see answerBody).
func encodeBody(body any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(body)
	return buf.Bytes(), err
}

// histBodySize guesses a histogram body's encoded length from its edge
// and count numbers (a count per bin, the bins one fewer than the edges),
// so the common body — mostly single-digit counts — is appended without
// regrowing.
func histBodySize(edges, counts int) int {
	return 512 + 24*edges + 2*counts
}

// answerJSON encodes the body's answer part — every field up to and
// including total, a function of the request's cache key alone — as
// encoding/json renders it, from the opening brace on. The counts are
// the body's histogram's, written from its encodings without a dense
// copy (histogram.Cells1D.AppendCountsJSON).
func (b *Hist1DBody) answerJSON() ([]byte, error) {
	e := jsonAppender{buf: make([]byte, 0, histBodySize(len(b.Edges), len(b.Edges)))}
	e.raw(`{"dataset":`)
	e.str(b.Dataset)
	e.raw(`,"step":`)
	e.int(b.Step)
	if b.Plan != "" {
		e.raw(`,"plan":`)
		e.str(b.Plan)
	}
	e.raw(`,"backend":`)
	e.str(b.Backend)
	e.raw(`,"var":`)
	e.str(b.Var)
	e.raw(`,"binning":`)
	e.str(b.Binning)
	e.raw(`,"edges":`)
	e.floats(b.Edges)
	e.raw(`,"counts":`)
	e.buf = b.hist.AppendCountsJSON(e.buf)
	e.raw(`,"total":`)
	e.uint(b.Total)
	return e.buf, e.err
}

// answerJSON is Hist1DBody.answerJSON for the 2D body.
func (b *Hist2DBody) answerJSON() ([]byte, error) {
	e := jsonAppender{buf: make([]byte, 0, histBodySize(len(b.XEdges)+len(b.YEdges), len(b.XEdges)*len(b.YEdges)))}
	e.raw(`{"dataset":`)
	e.str(b.Dataset)
	e.raw(`,"step":`)
	e.int(b.Step)
	if b.Plan != "" {
		e.raw(`,"plan":`)
		e.str(b.Plan)
	}
	e.raw(`,"backend":`)
	e.str(b.Backend)
	e.raw(`,"xvar":`)
	e.str(b.XVar)
	e.raw(`,"yvar":`)
	e.str(b.YVar)
	e.raw(`,"binning":`)
	e.str(b.Binning)
	e.raw(`,"xedges":`)
	e.floats(b.XEdges)
	e.raw(`,"yedges":`)
	e.floats(b.YEdges)
	e.raw(`,"counts":`)
	e.buf = b.hist.AppendCountsJSON(e.buf)
	e.raw(`,"total":`)
	e.uint(b.Total)
	return e.buf, e.err
}

// appendMeta appends the rest of a histogram body after its answer part:
// the request's meta and the closing brace, with the trailing newline of
// Encoder.Encode.
func appendMeta(dst []byte, m *ResponseMeta) ([]byte, error) {
	e := jsonAppender{buf: dst}
	e.meta(m)
	e.raw("}\n")
	return e.buf, e.err
}

// jsonAppender appends JSON values the way encoding/json encodes them; the
// first unencodable value (a NaN or ±Inf float) sticks in err.
type jsonAppender struct {
	buf []byte
	err error
}

func (e *jsonAppender) raw(s string) { e.buf = append(e.buf, s...) }

func (e *jsonAppender) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

func (e *jsonAppender) uint(v uint64) { e.buf = strconv.AppendUint(e.buf, v, 10) }

// meta inlines an embedded ResponseMeta's fields, omitempty as tagged.
func (e *jsonAppender) meta(m *ResponseMeta) {
	if m.Outcome != "" {
		e.raw(`,"outcome":`)
		e.str(m.Outcome)
	}
	if m.Degraded {
		e.raw(`,"degraded":true`)
	}
	if m.DegradedMode != "" {
		e.raw(`,"degraded_mode":`)
		e.str(m.DegradedMode)
	}
	if m.Partial {
		e.raw(`,"partial":true`)
	}
	if len(m.FailedSteps) > 0 {
		e.raw(`,"failed_steps":`)
		e.ints(m.FailedSteps)
	}
	if len(m.FailedShards) > 0 {
		e.raw(`,"failed_shards":`)
		e.ints(m.FailedShards)
	}
	e.raw(`,"elapsed_ms":`)
	e.float(m.ElapsedMS)
	if m.Trace != nil {
		e.raw(`,"trace":`)
		e.marshal(m.Trace)
	}
	if m.Explain != nil {
		e.raw(`,"explain":`)
		e.marshal(m.Explain)
	}
}

// marshal appends a rarely present nested value (a trace, an explain)
// through encoding/json, whose Marshal escapes exactly as Encode does.
func (e *jsonAppender) marshal(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		e.fail(err)
		return
	}
	e.buf = append(e.buf, b...)
}

func (e *jsonAppender) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// float appends f as encoding/json does: ES6 number formatting, with the
// exponent form below 1e-6 and from 1e21 up and no zero-padded exponent.
func (e *jsonAppender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(&json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)})
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

// floats appends a []float64; nil is null, as encoding/json has it.
func (e *jsonAppender) floats(vs []float64) {
	if vs == nil {
		e.raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.float(v)
	}
	e.buf = append(e.buf, ']')
}

// ints appends a []int; nil is null.
func (e *jsonAppender) ints(vs []int) {
	if vs == nil {
		e.raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range vs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.int(v)
	}
	e.buf = append(e.buf, ']')
}

// str appends s as a JSON string the way encoding/json does with HTML
// escaping on (the Encoder default): " and \ and control characters
// escaped, <, > and & as \u003c, \u003e and \u0026, invalid UTF-8 as
// \ufffd, and U+2028/U+2029 escaped.
func (e *jsonAppender) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}
