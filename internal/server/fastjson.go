package server

// Hand-rolled JSON codec for the two scoring hot paths: POST
// /models/{name}/detect and POST /streams/{id}/points. encoding/json's
// reflective decoder and indenting encoder dominated those endpoints'
// profiles (the detection work itself is a small fraction of request
// time), so their request shapes are parsed by a small recursive-descent
// scanner and their responses emitted by direct appenders. Every other
// endpoint keeps the generic readJSON/writeJSON plumbing — the fast
// path buys throughput only where requests carry thousands of numbers.
//
// Contract parity with readJSON, which the handler tests pin:
//
//   - unknown object fields are rejected with encoding/json's own
//     message ("json: unknown field %q"), mapped to 400;
//   - non-whitespace bytes after the document map to 400 "trailing data
//     after JSON body" (errTrailingData);
//   - an oversized body surfaces http.MaxBytesError, mapped to 413;
//   - field names match case-insensitively, null is accepted wherever
//     encoding/json accepts it, and numbers follow the JSON grammar
//     (no leading zeros, hex, or bare '.5') with strconv.ParseFloat
//     rounding.
//
// Known divergences, all on malformed input only: syntax-error wording
// differs (callers only surface that a 400 has *a* message), and
// invalid UTF-8 inside strings is passed through rather than replaced
// with U+FFFD.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	cdt "cdt"
)

// errTrailingData flags non-whitespace bytes after a valid JSON body.
var errTrailingData = errors.New("trailing data after JSON body")

// writeBodyError maps a body read/parse error to the same status codes
// and messages readJSON produces.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
	case errors.Is(err, errTrailingData):
		writeError(w, http.StatusBadRequest, "trailing data after JSON body")
	default:
		writeError(w, http.StatusBadRequest, "decoding body: %v", err)
	}
}

// --- request parsing ----------------------------------------------------

type jsonParser struct {
	data []byte
	pos  int
}

func (p *jsonParser) syntaxf(format string, args ...any) error {
	return fmt.Errorf("invalid JSON: "+format+" at offset %d", append(args, p.pos)...)
}

func (p *jsonParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) consume(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// tryNull consumes a leading "null" keyword. A trailing identifier
// character (as in "nullx") is left for the caller's next expectation
// to reject.
func (p *jsonParser) tryNull() bool {
	if len(p.data)-p.pos >= 4 && string(p.data[p.pos:p.pos+4]) == "null" {
		p.pos += 4
		return true
	}
	return false
}

// end verifies nothing but whitespace follows the document.
func (p *jsonParser) end() error {
	p.skipSpace()
	if p.pos != len(p.data) {
		return errTrailingData
	}
	return nil
}

// object parses {"key": value, ...}, invoking field with each key; field
// must consume the value.
func (p *jsonParser) object(field func(key string) error) error {
	p.skipSpace()
	if !p.consume('{') {
		return p.syntaxf("expected object")
	}
	p.skipSpace()
	if p.consume('}') {
		return nil
	}
	for {
		p.skipSpace()
		key, err := p.stringValue()
		if err != nil {
			return err
		}
		p.skipSpace()
		if !p.consume(':') {
			return p.syntaxf("expected ':' after object key")
		}
		if err := field(key); err != nil {
			return err
		}
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume('}') {
			return nil
		}
		return p.syntaxf("expected ',' or '}' in object")
	}
}

// array parses [value, ...]; elem must consume one value.
func (p *jsonParser) array(elem func() error) error {
	p.skipSpace()
	if !p.consume('[') {
		return p.syntaxf("expected array")
	}
	p.skipSpace()
	if p.consume(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return nil
		}
		return p.syntaxf("expected ',' or ']' in array")
	}
}

// stringValue parses a JSON string. The fast path slices escape-free
// strings straight out of the input.
func (p *jsonParser) stringValue() (string, error) {
	d := p.data
	if p.pos >= len(d) || d[p.pos] != '"' {
		return "", p.syntaxf("expected string")
	}
	p.pos++
	start := p.pos
	for i := p.pos; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			p.pos = i + 1
			return string(d[start:i]), nil
		case c == '\\' || c < 0x20:
			return p.stringSlow(start, i)
		}
	}
	p.pos = len(d)
	return "", p.syntaxf("unterminated string")
}

// stringSlow finishes a string that contains escapes, starting from the
// first non-literal byte at index i (content begins at start).
func (p *jsonParser) stringSlow(start, i int) (string, error) {
	d := p.data
	buf := append(make([]byte, 0, 2*(i-start)+16), d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			p.pos = i + 1
			return string(buf), nil
		case c < 0x20:
			p.pos = i
			return "", p.syntaxf("control character in string")
		case c != '\\':
			buf = append(buf, c)
			i++
		default:
			if i+1 >= len(d) {
				p.pos = i
				return "", p.syntaxf("unterminated escape")
			}
			i++
			switch e := d[i]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
				i++
			case 'b':
				buf = append(buf, '\b')
				i++
			case 'f':
				buf = append(buf, '\f')
				i++
			case 'n':
				buf = append(buf, '\n')
				i++
			case 'r':
				buf = append(buf, '\r')
				i++
			case 't':
				buf = append(buf, '\t')
				i++
			case 'u':
				if len(d) < i+5 {
					p.pos = i
					return "", p.syntaxf("unterminated \\u escape")
				}
				r, ok := hex4(d[i+1 : i+5])
				if !ok {
					p.pos = i
					return "", p.syntaxf("invalid \\u escape")
				}
				i += 5
				if utf16.IsSurrogate(r) {
					// A valid low surrogate in the next escape combines;
					// anything else leaves U+FFFD (encoding/json semantics)
					// and reprocesses the next bytes normally.
					r2 := rune(-1)
					if len(d) >= i+6 && d[i] == '\\' && d[i+1] == 'u' {
						if h, ok := hex4(d[i+2 : i+6]); ok {
							r2 = h
						}
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				p.pos = i
				return "", p.syntaxf("invalid escape character %q", e)
			}
		}
	}
	p.pos = len(d)
	return "", p.syntaxf("unterminated string")
}

func hex4(d []byte) (rune, bool) {
	var r rune
	for _, c := range d[:4] {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, false
		}
	}
	return r, true
}

// pow10 holds the exactly-representable small powers of ten used by the
// fast float path.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// number parses one JSON number. The token is validated against the
// JSON grammar (so "01", "+1", ".5" and "1." are rejected exactly as
// encoding/json rejects them), then converted: plain decimals with at
// most 15 significant digits take an exact integer-scale path (mantissa
// < 2⁵³ and divisor a small power of ten make the single division
// correctly rounded, so it equals strconv.ParseFloat); everything else
// falls back to strconv.ParseFloat.
func (p *jsonParser) number() (float64, error) {
	d := p.data
	start := p.pos
	i := p.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	default:
		return 0, p.syntaxf("expected number")
	}
	sawExp := false
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			p.pos = i
			return 0, p.syntaxf("digits required after decimal point")
		}
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		sawExp = true
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			p.pos = i
			return 0, p.syntaxf("digits required in exponent")
		}
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
	}
	tok := d[start:i]
	p.pos = i
	if !sawExp {
		if f, ok := fastFloat(tok); ok {
			return f, nil
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, p.syntaxf("invalid number %q", tok)
	}
	return f, nil
}

// fastFloat converts a grammar-validated, exponent-free decimal token
// with at most 15 digits without allocating.
func fastFloat(b []byte) (float64, bool) {
	i := 0
	neg := false
	if b[0] == '-' {
		neg = true
		i = 1
	}
	var mant uint64
	nd, frac := 0, 0
	seenDot := false
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			seenDot = true
			continue
		}
		mant = mant*10 + uint64(c-'0')
		nd++
		if seenDot {
			frac++
		}
		if nd > 15 {
			return 0, false
		}
	}
	f := float64(mant)
	if frac > 0 {
		f /= pow10[frac]
	}
	if neg {
		f = -f
	}
	return f, true
}

// floatArray parses an array of numbers (or null → nil slice).
func (p *jsonParser) floatArray() ([]float64, error) {
	p.skipSpace()
	if p.tryNull() {
		return nil, nil
	}
	out := []float64{}
	err := p.array(func() error {
		p.skipSpace()
		f, err := p.number()
		if err != nil {
			return err
		}
		out = append(out, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parseBatchRequest decodes the body of POST /models/{name}/detect.
func parseBatchRequest(data []byte) (batchRequest, error) {
	var req batchRequest
	p := &jsonParser{data: data}
	p.skipSpace()
	if p.pos == len(p.data) {
		return req, io.EOF
	}
	if p.tryNull() {
		return req, p.end()
	}
	err := p.object(func(key string) error {
		if !strings.EqualFold(key, "series") {
			return fmt.Errorf("json: unknown field %q", key)
		}
		p.skipSpace()
		if p.tryNull() {
			req.Series = nil
			return nil
		}
		// Like encoding/json, a repeated key decodes into the earlier
		// array's elements (up to its capacity), keeping fields the new
		// objects omit.
		series := req.Series[:0]
		err := p.array(func() error {
			if len(series) < cap(series) {
				series = series[:len(series)+1]
			} else {
				series = append(series, seriesPayload{})
			}
			return p.seriesPayload(&series[len(series)-1])
		})
		if len(series) == 0 {
			series = []seriesPayload{} // an empty array drops the old elements
		}
		req.Series = series
		return err
	})
	if err != nil {
		return req, err
	}
	return req, p.end()
}

func (p *jsonParser) seriesPayload(sp *seriesPayload) error {
	return p.object(func(key string) error {
		switch {
		case strings.EqualFold(key, "name"):
			p.skipSpace()
			if p.tryNull() {
				return nil
			}
			s, err := p.stringValue()
			if err != nil {
				return err
			}
			sp.Name = s
			return nil
		case strings.EqualFold(key, "values"):
			vs, err := p.floatArray()
			if err != nil {
				return err
			}
			sp.Values = vs
			return nil
		default:
			return fmt.Errorf("json: unknown field %q", key)
		}
	})
}

// parsePushPoints decodes the body of POST /streams/{id}/points.
func parsePushPoints(data []byte) (pushPointsRequest, error) {
	var req pushPointsRequest
	p := &jsonParser{data: data}
	p.skipSpace()
	if p.pos == len(p.data) {
		return req, io.EOF
	}
	if p.tryNull() {
		return req, p.end()
	}
	err := p.object(func(key string) error {
		if !strings.EqualFold(key, "points") {
			return fmt.Errorf("json: unknown field %q", key)
		}
		vs, err := p.floatArray()
		if err != nil {
			return err
		}
		req.Points = vs
		return nil
	})
	if err != nil {
		return req, err
	}
	return req, p.end()
}

// --- response encoding --------------------------------------------------

// respBufPool recycles response buffers across hot-path requests.
var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1<<12); return &b }}

// writeRawJSON sends a pre-encoded JSON body.
func writeRawJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body) // the status line is already out; nothing to recover
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a quoted, escaped JSON string.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\\' || c < 0x20 {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			start = i + 1
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFiredRules encodes fired predicates as the "rules" array, which
// is never null: an empty set is [].
func appendFiredRules(dst []byte, fired []cdt.FiredPredicate) []byte {
	dst = append(dst, '[')
	for i := range fired {
		f := &fired[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"index":`...)
		dst = strconv.AppendInt(dst, int64(f.Index), 10)
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, f.Text)
		if f.Description != "" {
			dst = append(dst, `,"description":`...)
			dst = appendJSONString(dst, f.Description)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendBatchResponse encodes the POST /models/{name}/detect response:
// {"model","results":[{"name","detections",["error"]}]}. A series'
// detections are an array, null only next to its error; each carries
// window, start, end and rules, and pyramid detections add their
// "type" and per-scale "scales" breakdown.
func appendBatchResponse(dst []byte, model string, results []seriesResult) []byte {
	dst = append(dst, `{"model":`...)
	dst = appendJSONString(dst, model)
	dst = append(dst, `,"results":[`...)
	for i := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSeriesResult(dst, &results[i])
	}
	return append(dst, ']', '}', '\n')
}

func appendSeriesResult(dst []byte, r *seriesResult) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendJSONString(dst, r.name)
	if r.err != "" {
		dst = append(dst, `,"detections":null,"error":`...)
		dst = appendJSONString(dst, r.err)
		return append(dst, '}')
	}
	dst = append(dst, `,"detections":[`...)
	for i := range r.detections {
		d := &r.detections[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"window":`...)
		dst = strconv.AppendInt(dst, int64(d.Window), 10)
		dst = append(dst, `,"start":`...)
		dst = strconv.AppendInt(dst, int64(d.Start), 10)
		dst = append(dst, `,"end":`...)
		dst = strconv.AppendInt(dst, int64(d.End), 10)
		dst = append(dst, `,"rules":`...)
		dst = appendFiredRules(dst, d.Fired)
		if d.Type != "" {
			dst = append(dst, `,"type":`...)
			dst = appendJSONString(dst, string(d.Type))
		}
		if len(d.Scales) > 0 {
			dst = append(dst, `,"scales":`...)
			dst = appendScaleDetections(dst, d.Scales)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']', '}')
}

// appendScaleDetections encodes a pyramid detection's per-scale
// breakdown.
func appendScaleDetections(dst []byte, scales []cdt.ScaleDetection) []byte {
	dst = append(dst, '[')
	for i := range scales {
		sd := &scales[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"factor":`...)
		dst = strconv.AppendInt(dst, int64(sd.Factor), 10)
		dst = append(dst, `,"window":`...)
		dst = strconv.AppendInt(dst, int64(sd.Window), 10)
		dst = append(dst, `,"start":`...)
		dst = strconv.AppendInt(dst, int64(sd.Start), 10)
		dst = append(dst, `,"end":`...)
		dst = strconv.AppendInt(dst, int64(sd.End), 10)
		dst = append(dst, `,"rules":`...)
		dst = appendFiredRules(dst, sd.Fired)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// appendPushPointsResponse encodes the POST /streams/{id}/points
// response: {"detections":[...],"points_consumed","ready"}. Detections
// are always an array; each carries window_start, window_end and rules,
// and pyramid sessions add the firing "scale" and the "type".
func appendPushPointsResponse(dst []byte, dets []cdt.Detection, consumed int, ready bool) []byte {
	dst = append(dst, `{"detections":[`...)
	for i := range dets {
		d := &dets[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"window_start":`...)
		dst = strconv.AppendInt(dst, int64(d.WindowStart), 10)
		dst = append(dst, `,"window_end":`...)
		dst = strconv.AppendInt(dst, int64(d.WindowEnd), 10)
		dst = append(dst, `,"rules":`...)
		dst = appendFiredRules(dst, d.Fired)
		if d.Scale != 0 {
			dst = append(dst, `,"scale":`...)
			dst = strconv.AppendInt(dst, int64(d.Scale), 10)
		}
		if d.Type != "" {
			dst = append(dst, `,"type":`...)
			dst = appendJSONString(dst, string(d.Type))
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"points_consumed":`...)
	dst = strconv.AppendInt(dst, int64(consumed), 10)
	dst = append(dst, `,"ready":`...)
	dst = strconv.AppendBool(dst, ready)
	return append(dst, '}', '\n')
}
