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
//   - field names match case-insensitively, and null is accepted
//     wherever encoding/json accepts it;
//   - each byte of invalid UTF-8 inside a string decodes to U+FFFD, as
//     encoding/json decodes it, so a series name echoed back in a
//     response is always valid UTF-8;
//   - numbers follow the JSON grammar (no leading zeros, hex, or bare
//     '.5') and convert bit-identically to strconv.ParseFloat.
//
// Numbers are the bulk of every hot-path body, so each is read in one
// pass that checks the grammar while it accumulates the digits and the
// decimal exponent, and each number array is allocated once, at its
// element count (floatArray). The conversion then takes the first of
// three tiers that applies: an exact float multiply or divide,
// Eisel–Lemire over a 128-bit powers-of-ten table, or strconv.ParseFloat
// on the token (see number). Each tier rounds correctly, which is what
// makes the result bit-identical.
//
// Known divergence, on malformed input only: syntax-error wording
// differs (callers only surface that a 400 has *a* message).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"slices"
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

// --- request bodies -----------------------------------------------------

// Hot-path bodies are read into pooled buffers: a batch body carries
// hundreds of kilobytes of numbers, and io.ReadAll's growth copies and
// the garbage they leave cost about a tenth of batch detection's CPU.
const (
	// maxBodyHint bounds how much of a declared Content-Length is
	// allocated before the bytes arrive.
	maxBodyHint = 1 << 20
	// maxPooledBody is the largest buffer put back in the pool; a larger
	// one is left to the collector, so one huge request does not pin
	// its buffer for good.
	maxPooledBody = 4 << 20
)

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// readBody reads r's body into a pooled buffer. The caller hands it back
// with putBody once the body is parsed; the parsers copy every string
// and number out, so nothing outlives that. On a read error (including
// http.MaxBytesError) readBody puts the buffer back itself.
func readBody(r *http.Request) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	if n := r.ContentLength; n > 0 {
		// One byte past the hint, so that a body of exactly the declared
		// length reads to EOF without growing.
		buf = slices.Grow(buf, int(min(n, maxBodyHint))+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf
			putBody(bp)
			return nil, err
		}
	}
	*bp = buf
	return bp, nil
}

// putBody returns a body buffer to the pool unless it grew too large.
func putBody(bp *[]byte) {
	if cap(*bp) > maxPooledBody {
		return
	}
	*bp = (*bp)[:0]
	bodyPool.Put(bp)
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

// stringValue parses a JSON string. The fast path slices strings free of
// escapes and invalid UTF-8 straight out of the input.
func (p *jsonParser) stringValue() (string, error) {
	d := p.data
	if p.pos >= len(d) || d[p.pos] != '"' {
		return "", p.syntaxf("expected string")
	}
	p.pos++
	start := p.pos
	for i := p.pos; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			p.pos = i + 1
			return string(d[start:i]), nil
		case c == '\\' || c < 0x20:
			return p.stringSlow(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			if r == utf8.RuneError && size == 1 {
				return p.stringSlow(start, i)
			}
			i += size
		}
	}
	p.pos = len(d)
	return "", p.syntaxf("unterminated string")
}

// stringSlow finishes a string that contains escapes or invalid UTF-8,
// starting from the first such byte at index i (content begins at
// start).
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
		case c < utf8.RuneSelf && c != '\\':
			buf = append(buf, c)
			i++
		case c >= utf8.RuneSelf:
			// Like encoding/json, each byte that does not start a valid
			// UTF-8 sequence decodes to U+FFFD.
			r, size := utf8.DecodeRune(d[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
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

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number parses one JSON number in a single pass. It checks the JSON
// grammar, so "01", "+1", ".5" and "1." stop or fail where
// encoding/json's scanner does, while it accumulates the digits into a
// mantissa and tracks the decimal exponent. The value then converts by
// the first tier that applies, each bit-identical to strconv.ParseFloat:
//
//  1. exact: a mantissa below 2⁵² times or over 10^k, k ≤ 22, is one
//     float64 multiply or divide of two exact operands, so it rounds
//     once and correctly (strconv's atof64exact rule). Eisel–Lemire
//     cannot take its place: it declines every decimal fraction that a
//     float64 holds exactly, such as 21.5 or 97.25, because the
//     truncated table row for 10^-k lands just below the value. Readings
//     from fixed-resolution sensors are often such fractions;
//  2. eiselLemire;
//  3. strconv.ParseFloat on the token, for more than 19 significant
//     digits, an exponent of maxExpAbs or more, a halfway case the
//     128-bit product cannot settle, and subnormal or out-of-range
//     results, so 1e400 still fails.
func (p *jsonParser) number() (float64, error) {
	d := p.data
	start := p.pos
	i := p.pos
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	// mant takes every digit. It is the exact significand while at most
	// maxMantDigits digits are significant, since leading zeros add
	// nothing to it; past that it may have wrapped and goes unused.
	var mant uint64
	digits := i
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && d[i] >= '1' && d[i] <= '9':
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			mant = mant*10 + uint64(d[i]-'0')
		}
	default:
		return 0, p.syntaxf("expected number")
	}
	nd := i - digits
	exp10 := 0 // the value is mant × 10^exp10
	if i < len(d) && d[i] == '.' {
		i++
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			p.pos = i
			return 0, p.syntaxf("digits required after decimal point")
		}
		frac := i
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			mant = mant*10 + uint64(d[i]-'0')
		}
		nd += i - frac
		exp10 = frac - i
	}
	slow := false // the token needs tier 3
	if nd > maxMantDigits {
		for j := digits; j < i && (d[j] == '0' || d[j] == '.'); j++ {
			if d[j] == '0' {
				nd-- // a leading zero, as in 0.000123
			}
		}
		slow = nd > maxMantDigits
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		expNeg := false
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			expNeg = d[i] == '-'
			i++
		}
		if i >= len(d) || d[i] < '0' || d[i] > '9' {
			p.pos = i
			return 0, p.syntaxf("digits required in exponent")
		}
		e := 0
		for ; i < len(d) && d[i] >= '0' && d[i] <= '9'; i++ {
			if e < maxExpAbs {
				e = e*10 + int(d[i]-'0')
			}
		}
		slow = slow || e >= maxExpAbs // e may have saturated
		if expNeg {
			e = -e
		}
		exp10 += e
	}
	tok := d[start:i]
	p.pos = i
	if !slow {
		if mant>>52 == 0 && exp10 >= -22 && exp10 <= 22 {
			f := float64(mant)
			if neg {
				f = -f
			}
			if exp10 < 0 {
				return f / exactPow10[-exp10], nil
			}
			return f * exactPow10[exp10], nil
		}
		if f, ok := eiselLemire(mant, exp10, neg); ok {
			return f, nil
		}
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, p.syntaxf("invalid number %q", tok)
	}
	return f, nil
}

const (
	// maxMantDigits is the most decimal digits a uint64 always holds.
	maxMantDigits = 19
	// maxExpAbs is where number stops accumulating an exponent, which
	// therefore is exact below it. Past it, strconv decides between
	// zero, a finite value and a range error.
	maxExpAbs = 10000
)

// The powers-of-ten table spans the decimal exponents at which a 19-digit
// mantissa can still give a normal, finite float64.
const (
	minPow10 = -348
	maxPow10 = 347
)

// powersOfTen[e-minPow10] is 10^e as a 128-bit mantissa {lo, hi},
// shifted so that hi's top bit is set and truncated toward zero:
// 10^e ≈ (hi·2⁶⁴ + lo)·2^k for some k. It equals the literal table
// strconv carries; building it keeps the source to one short loop, at
// about 0.15 ms of package init.
var powersOfTen = buildPowersOfTen()

func buildPowersOfTen() (t [maxPow10 - minPow10 + 1][2]uint64) {
	var (
		one = big.NewInt(1)
		pow = big.NewInt(1) // 10^e
		x   big.Int
		buf [16]byte
	)
	row := func(x *big.Int) [2]uint64 {
		x.FillBytes(buf[:])
		return [2]uint64{binary.BigEndian.Uint64(buf[8:]), binary.BigEndian.Uint64(buf[:8])}
	}
	ten := big.NewInt(10)
	for e := 0; e <= -minPow10; e++ {
		n := pow.BitLen() // 2^(n-1) ≤ 10^e < 2^n
		if e <= maxPow10 {
			if n > 128 {
				x.Rsh(pow, uint(n-128))
			} else {
				x.Lsh(pow, uint(128-n))
			}
			t[e-minPow10] = row(&x)
		}
		if e > 0 {
			// 2^(127+n) / 10^e lies strictly between 2^127 and 2^128:
			// 10^e is never a power of two.
			x.Lsh(one, uint(127+n))
			t[-e-minPow10] = row(x.Quo(&x, pow))
		}
		pow.Mul(pow, ten)
	}
	return t
}

// floatArray parses an array of numbers (or null → nil slice). Its slice
// is allocated once: a valid array of n numbers holds n−1 commas before
// its closing bracket, so that count sizes it exactly. Invalid input may
// miscount, which only costs a regrowth or spare capacity before the
// parse fails; the size is capped by the bytes up to the bracket, which
// hold at most half as many numbers plus one.
func (p *jsonParser) floatArray() ([]float64, error) {
	p.skipSpace()
	if p.tryNull() {
		return nil, nil
	}
	if !p.consume('[') {
		return nil, p.syntaxf("expected array")
	}
	p.skipSpace()
	if p.consume(']') {
		return []float64{}, nil
	}
	rest := p.data[p.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	out := make([]float64, 0, min(bytes.Count(rest, comma)+1, len(rest)/2+1))
	for {
		p.skipSpace()
		f, err := p.number()
		if err != nil {
			return nil, err
		}
		out = append(out, f)
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return out, nil
		}
		return nil, p.syntaxf("expected ',' or ']' in array")
	}
}

var comma = []byte{','}

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

// appendJSONString appends s as a quoted, escaped JSON string. It
// skips eight bytes at a time to the next word holding a byte to escape
// (skipClean) and copies each clean span with one append; that word,
// and the tail shorter than a word, go byte by byte.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		i = skipClean(s, i)
		for end := min(i+8, len(s)); i < end; i++ {
			c := s[i]
			if c != '"' && c != '\\' && c >= 0x20 {
				continue
			}
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

// Byte lanes for skipClean: a one in every byte, and every byte's top
// bit.
const (
	laneOnes = 0x0101010101010101
	laneTops = 0x8080808080808080
)

// skipClean returns the start of the first eight-byte word of s at or
// after i that holds a byte appendJSONString escapes ('"', '\\' or one
// below 0x20), or of the tail shorter than a word. It loads each word as
// one little-endian uint64 w and tests it with the has-zero-byte trick:
// (x − n·laneOnes) &^ x & laneTops is non-zero exactly when some byte
// of x is below n, for n ≤ 0x80. So it tests w for a byte below 0x20,
// and w XOR each escaped character, repeated, for a zero byte.
func skipClean(s string, i int) int {
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		quote := w ^ ('"' * laneOnes)
		slash := w ^ ('\\' * laneOnes)
		if ((w-0x20*laneOnes)&^w|(quote-laneOnes)&^quote|(slash-laneOnes)&^slash)&laneTops != 0 {
			return i
		}
	}
	return i
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
