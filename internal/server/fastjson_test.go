package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	cdt "cdt"
	"cdt/internal/datasets/sge"
)

// refDecode reproduces readJSON's decode semantics with encoding/json:
// DisallowUnknownFields, then a trailing-data check.
func refDecode(data []byte, v any) (trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return false, err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return true, nil
	}
	return false, nil
}

// requestBodies is the shared differential corpus: for every body, the
// hand-rolled parsers must accept exactly what readJSON accepts and
// produce identical values.
var requestBodies = []string{
	// Valid shapes.
	`{"series":[{"name":"a","values":[1,2,3]}]}`,
	`{"series":[]}`,
	`{"series":null}`,
	`{}`,
	`null`,
	"  {\n\t\"series\" : [ { \"name\" : \"s p a c e\" , \"values\" : [ -1.5 , 0 , 2e3 ] } ] }  ",
	`{"Series":[{"NAME":"case-fold","VaLuEs":[4]}]}`,
	`{"series":[{"values":[0.1,0.25E+2,-0],"name":"reorder"}]}`,
	`{"series":[{"name":"esc\"\\\/\b\f\n\r\t","values":[]},{"name":"unicode é€😀","values":[1]}]}`,
	`{"series":[{"name":"raw utf8 éé€","values":[3.141592653589793,1e-300,1.7976931348623157e308]}]}`,
	`{"series":[{"name":"lone surrogate \ud800 tail","values":[7]}]}`,
	`{"series":[{"name":null,"values":null}]}`,
	`{"series":[{},{"name":"empty"}]}`,
	`{"series":[{"name":"dots","values":[0.5,123456789012345,0.000001,12345678901234567890]}]}`,
	// Shortest-round-trip readings carry 16–17 significant digits.
	`{"series":[{"name":"readings","values":[97.70931178939436,103.26604497306657,0.30000000000000004,1234.5678901234567,62.599999999999994,-7.105427357601002e-15]}]}`,
	// Hard conversions: every tier of jsonParser.number, the strconv
	// fallback included (see numberSeeds).
	`{"series":[{"name":"hard","values":[-0,0.0000000000000000000000000000001,4.9e-324,2.2250738585072011e-308,1.7976931348623157e308,9007199254740993,12345678901234567891,123456789012345678901234567890,1e23,1e-400,1e-1000000000000000000000000,2e0000000000000000000000001]}]}`,
	// Invalid UTF-8 in a string decodes to one U+FFFD per bad byte.
	"{\"series\":[{\"name\":\"a\xffb\",\"values\":[1]},{\"name\":\"\xed\xa0\x80 \xe2\x82 \\u00e9\xc3\",\"values\":[]}]}",
	// A repeated key decodes its array into the earlier elements, which
	// keep the fields the later ones omit.
	`{"series":[{"name":"a","values":[1]},{"name":"b"}],"series":[{"values":[2]}],"series":[{},{}]}`,
	`{"series":[{"name":"a"}],"series":null,"series":[{}]}`,
	`{"series":[{"name":"a"}],"series":[],"series":[{}]}`,
	// Malformed or rejected bodies.
	``,
	`   `,
	`{nope`,
	`{"series":}`,
	`[1,2]`,
	`"series"`,
	`{"series":[{"name":"a","values":[1,2,3]}]}{}`,
	`{"series":[{"name":"a","values":[1,2,3]}]} garbage`,
	`{"serie":[]}`,
	`{"series":[{"nam":"a"}]}`,
	`{"series":[{"name":"a","values":[01]}]}`,
	`{"series":[{"name":"a","values":[+1]}]}`,
	`{"series":[{"name":"a","values":[.5]}]}`,
	`{"series":[{"name":"a","values":[1.]}]}`,
	`{"series":[{"name":"a","values":[1e]}]}`,
	`{"series":[{"name":"a","values":[nan]}]}`,
	`{"series":[{"name":"a","values":[1.7976931348623159e308]}]}`,
	`{"series":[{"name":"a","values":[-1e1000000000000000000000000]}]}`,
	`{"series":[{"name":"a","values":[1,]}]}`,
	`{"series":[{"name":"a","values":["x"]}]}`,
	`{"series":[{"name":"a","values":[1]}],}`,
	`{"series":[{"name":"bad escape \q","values":[]}]}`,
	`{"series":[{"name":"bad hex \u12zz","values":[]}]}`,
	`{"series":[{"name":"unterminated`,
	`nullx`,
}

// pushBodies extends the corpus with point-push shapes.
var pushBodies = []string{
	`{"points":[1,2,3]}`,
	`{"points":[]}`,
	`{"points":null}`,
	`{"Points":[0.5,-0.5,1e2]}`,
	`{}`,
	`null`,
	` { "points" : [ 42 ] } `,
	`{"points":[1],"points":[2,3]}`,
	`{"point":[1]}`,
	`{"points":[1]} trailing`,
	`{"points":[1}`,
	`{"points":{"a":1}}`,
	``,
	`{nope`,
}

// checkDecodeParity fails t unless parse accepts exactly what readJSON
// accepts on body, flags trailing data the same way, and decodes the
// same value.
func checkDecodeParity[T any](t *testing.T, body []byte, parse func([]byte) (T, error)) {
	t.Helper()
	var want T
	trailing, refErr := refDecode(body, &want)
	got, err := parse(body)
	switch {
	case trailing:
		if !errors.Is(err, errTrailingData) {
			t.Fatalf("reference flags trailing data, fast parser: %v", err)
		}
	case refErr != nil:
		if err == nil {
			t.Fatalf("reference rejects (%v), fast parser accepted %+v", refErr, got)
		}
	default:
		if err != nil {
			t.Fatalf("reference accepts, fast parser rejects: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parsed value diverged:\nfast: %+v\nref:  %+v", got, want)
		}
	}
}

func TestParseBatchRequestDifferential(t *testing.T) {
	for _, body := range requestBodies {
		t.Run(body, func(t *testing.T) { checkDecodeParity(t, []byte(body), parseBatchRequest) })
	}
}

func TestParsePushPointsDifferential(t *testing.T) {
	for _, body := range pushBodies {
		t.Run(body, func(t *testing.T) { checkDecodeParity(t, []byte(body), parsePushPoints) })
	}
}

// fuzzDecodeParity runs checkDecodeParity over arbitrary bodies seeded
// from both corpora.
func fuzzDecodeParity[T any](f *testing.F, parse func([]byte) (T, error)) {
	for _, body := range slices.Concat(requestBodies, pushBodies) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeParity(t, body, parse) })
}

func FuzzParseBatchRequest(f *testing.F) { fuzzDecodeParity(f, parseBatchRequest) }

func FuzzParsePushPoints(f *testing.F) { fuzzDecodeParity(f, parsePushPoints) }

// TestParseUnknownFieldMessage pins the unknown-field wording to
// encoding/json's, so clients see identical 400 bodies on either path.
func TestParseUnknownFieldMessage(t *testing.T) {
	body := []byte(`{"serie":[]}`)
	var req batchRequest
	_, refErr := refDecode(body, &req)
	if refErr == nil {
		t.Fatal("reference accepted unknown field")
	}
	if _, err := parseBatchRequest(body); err == nil || err.Error() != refErr.Error() {
		t.Fatalf("unknown-field message diverged:\nfast: %v\nref:  %v", err, refErr)
	}
}

// TestBatchDetectReplacesInvalidUTF8: a series name carrying invalid
// UTF-8 comes back in the batch response with each bad byte replaced
// by U+FFFD, as encoding/json would decode it, so the response body is
// valid UTF-8.
func TestBatchDetectReplacesInvalidUTF8(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	values, err := json.Marshal(spiky("s", 300, []int{120, 240}, 1).Values)
	if err != nil {
		t.Fatal(err)
	}
	body := "{\"series\":[{\"name\":\"a\xffb\",\"values\":" + string(values) + "}]}"
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/models/spikes/detect", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if !utf8.Valid(rec.Body.Bytes()) {
		t.Fatalf("response is not valid UTF-8: %q", rec.Body.Bytes())
	}
	var out wireBatch
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if want := "a\ufffdb"; len(out.Results) != 1 || out.Results[0].Name != want {
		t.Fatalf("results = %+v, want one series named %q", out.Results, want)
	}
}

// numberSeeds are the conversions most likely to go wrong: signed zero,
// the subnormal, normal and overflow boundaries, halfway cases, more
// than 19 significant digits, powers of ten past exact float64 range,
// underflow to zero and exponents with many digits; then tokens that
// stop early or fail, where the stop byte matters.
var numberSeeds = []string{
	"-0", "0", "-0.0e-7", "0e99999",
	"0.0000000000000000000000000000001",
	"4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
	"2.2250738585072011e-308", "2.2250738585072014e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
	"9007199254740993", "9007199254740992.5", "4503599627370497.5",
	"12345678901234567891", "12345678901234567890", "1234567890123456789012",
	"123456789012345678901234567890", "0.123456789012345678901234567890e-5",
	"1e22", "1e23", "8.41e21", "1e-22", "1e-23",
	"1e-400", "1e400", "-1e400", "1e9999", "1e10000",
	"1e0000000000000000000000001", "1e-1000000000000000000000000", "1e1000000000000000000000000",
	"97.70931178939436", "103.26604497306657", "0.30000000000000004",
	"1.5x", "01", "-01", "1 ", "1.", "1e", "1e+", "-", "-x", ".5", "+1", "1.5.3", "2.5e+3]",
}

// checkNumberParity holds number to encoding/json on one token: it
// accepts exactly the tokens json.Unmarshal accepts into a float64,
// with the same bits (-0 included), and stops at the byte where
// json.Decoder ends the value.
func checkNumberParity(t *testing.T, tok []byte) {
	t.Helper()
	p := &jsonParser{data: tok}
	got, err := p.number()
	if len(tok) == 0 || tok[0] != '-' && (tok[0] < '0' || tok[0] > '9') {
		if err == nil {
			t.Fatalf("number(%q) = %v, but no JSON number starts there", tok, got)
		}
		return // null and leading space are the callers' business
	}
	var whole float64
	wholeErr := json.Unmarshal(tok, &whole)
	rest := bytes.TrimLeft(tok[p.pos:], " \t\r\n")
	if accepted := err == nil && len(rest) == 0; accepted != (wholeErr == nil) {
		t.Fatalf("number(%q): accepted=%v (err %v), json.Unmarshal err %v", tok, accepted, err, wholeErr)
	}
	dec := json.NewDecoder(bytes.NewReader(tok))
	var want float64
	if refErr := dec.Decode(&want); refErr != nil {
		if err == nil {
			t.Fatalf("number(%q) = %v, json.Decoder rejects: %v", tok, got, refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("number(%q): %v, json.Decoder reads %v", tok, err, want)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("number(%q) = %v (%#x), json reads %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if end := dec.InputOffset(); int64(p.pos) != end {
		t.Fatalf("number(%q) stopped at byte %d, json.Decoder at %d", tok, p.pos, end)
	}
}

// FuzzParseNumber seeds the fuzzer with numberSeeds and every 97th of
// digitRunTokens: a prime stride, so the picks rotate through lengths,
// exponents, terminators and pads. All 49,000 would keep the fuzzer
// gathering baseline coverage for minutes before it mutates anything;
// TestParseNumberDigitRuns runs them all.
func FuzzParseNumber(f *testing.F) {
	for _, tok := range numberSeeds {
		f.Add([]byte(tok))
	}
	for i, tok := range digitRunTokens() {
		if i%97 == 0 {
			f.Add([]byte(tok))
		}
	}
	f.Fuzz(checkNumberParity)
}

// digitRunTokens builds tokens whose integer and fraction parts are
// 0–20 digits long (a part of 0 digits is left out, so some tokens are
// invalid), with no exponent, a positive or a negative one, every other
// one negated. Each comes bare, ending the buffer, and followed by ',',
// ']', '}' or a space and then 0–8 more digits, so every digit run,
// whatever its length, ends on each terminator, at the buffer's end, and
// with digits close behind that must not be taken.
func digitRunTokens() []string {
	rng := rand.New(rand.NewSource(25))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if n > 1 && b[0] == '0' {
			b[0] = '1' + byte(rng.Intn(9)) // no leading zero
		}
		return string(b)
	}
	var out []string
	for ni := 0; ni <= 20; ni++ {
		for nf := 0; nf <= 20; nf++ {
			for e, exp := range []string{"", "e5", "E-17"} {
				tok := digits(ni)
				if nf > 0 {
					tok += "." + digits(nf)
				}
				tok += exp
				if (ni+nf+e)%2 == 1 {
					tok = "-" + tok
				}
				out = append(out, tok)
				for _, term := range []string{",", "]", "}", " "} {
					for pad := 0; pad <= 8; pad++ {
						out = append(out, tok+term+digits(pad))
					}
				}
			}
		}
	}
	return out
}

// TestParseNumberDigitRuns holds number to encoding/json (and so to
// strconv.ParseFloat's bits) on digitRunTokens: a value and a stop byte
// for each. TestParseNumberMatchesStrconv's buffers each hold one token,
// so none of its digit runs ends on ',', ']', '}' or a space.
func TestParseNumberDigitRuns(t *testing.T) {
	for _, tok := range digitRunTokens() {
		checkNumberParity(t, []byte(tok))
	}
}

// TestParseNumberMatchesStrconv sweeps a million seeded float64s, drawn
// from four families, through five formats each, and requires number
// to parse every string to strconv.ParseFloat's bits. It also spot
// checks rows of the powers-of-ten table against strconv's literal one.
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, row := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0, 0x8000000000000000},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := powersOfTen[row.exp10-minPow10]; got != [2]uint64{row.lo, row.hi} {
			t.Errorf("powersOfTen 1e%d = {%#x, %#x}, want {%#x, %#x}", row.exp10, got[0], got[1], row.lo, row.hi)
		}
	}

	// Each family draws 2¹⁸ values from its own seeded source, so the
	// families can run in parallel and still sweep the same strings.
	families := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"uniform-bits", func(rng *rand.Rand) float64 {
			for {
				if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
					return v
				}
			}
		}},
		{"normal×10^±20", func(rng *rand.Rand) float64 { return rng.NormFloat64() * math.Pow10(rng.Intn(41)-20) }},
		{"integer/10^k", func(rng *rand.Rand) float64 {
			return float64(rng.Int63()>>rng.Intn(63)) / math.Pow10(rng.Intn(23))
		}},
		{"[0,1000)", func(rng *rand.Rand) float64 { return 1000 * rng.Float64() }},
	}
	formats := []struct {
		fmt  byte
		prec int
	}{{'g', -1}, {'e', 16}, {'e', 17}, {'e', 20}, {'f', -1}}
	for seed, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			var buf []byte
			for range 1 << 18 {
				v := fam.draw(rng)
				for _, f := range formats {
					buf = strconv.AppendFloat(buf[:0], v, f.fmt, f.prec, 64)
					want, err := strconv.ParseFloat(string(buf), 64)
					if err != nil {
						t.Fatal(err)
					}
					p := &jsonParser{data: buf}
					got, err := p.number()
					if err != nil || p.pos != len(buf) || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("number(%q) = %v (%#x), pos %d, err %v; strconv reads %#x",
							buf, got, math.Float64bits(got), p.pos, err, math.Float64bits(want))
					}
				}
			}
		})
	}
}

// TestParseBatchRequestAllocatesEachValuesOnce: decoding 8 series of
// 2,000 readings allocates each series' values slice once, at its exact
// length — as many allocations as decoding 8 series of 20 readings, so
// no slice grows as its readings arrive.
func TestParseBatchRequestAllocatesEachValuesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	const series = 8
	ds := sge.Calorie(sge.CalorieOptions{Sensors: series, Days: 2000, Seed: 1})
	body := func(readings int) []byte {
		req := batchRequest{}
		for _, s := range ds.Series {
			req.Series = append(req.Series, seriesPayload{Name: s.Name, Values: s.Values[:readings]})
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	short, long := body(20), body(2000)
	req, err := parseBatchRequest(long)
	if err != nil || len(req.Series) != series {
		t.Fatalf("%d series, err %v", len(req.Series), err)
	}
	for _, sp := range req.Series {
		if len(sp.Values) != 2000 || cap(sp.Values) != 2000 {
			t.Fatalf("series %s: %d values in a slice of capacity %d, want 2000 in 2000", sp.Name, len(sp.Values), cap(sp.Values))
		}
	}
	parse := func(b []byte) func() {
		return func() {
			if _, err := parseBatchRequest(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s, l := testing.AllocsPerRun(10, parse(short)), testing.AllocsPerRun(10, parse(long)); l != s {
		t.Fatalf("%v allocations for 8×2000 readings, %v for 8×20; want the same", l, s)
	}
}

// TestParseNumberAllocatesNothing: exact-tier and Eisel–Lemire tokens
// convert without allocating.
func TestParseNumberAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	for _, tc := range []struct {
		tok   string
		mant  uint64 // Eisel–Lemire's input, for tokens past the exact tier
		exp10 int
	}{
		{tok: "97.25"},
		{tok: "-0"},
		{tok: "4503599627370495e22"},
		{"97.70931178939436", 9770931178939436, -14},
		{"-0.30000000000000004", 30000000000000004, -17},
		{"1.7976931348623157e308", 17976931348623157, 292},
		{"1e-30", 1, -30},
	} {
		if tc.mant != 0 {
			if _, ok := eiselLemire(tc.mant, tc.exp10, false); !ok {
				t.Fatalf("%s: Eisel–Lemire declines", tc.tok)
			}
		}
		data := []byte(tc.tok)
		var got float64
		n := testing.AllocsPerRun(100, func() {
			p := jsonParser{data: data}
			got, _ = p.number()
		})
		if want, _ := strconv.ParseFloat(tc.tok, 64); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("number(%q) = %v, want %v", tc.tok, got, want)
		}
		if n != 0 {
			t.Errorf("number(%q): %v allocations, want 0", tc.tok, n)
		}
	}
}

// The hot endpoints' wire schema as encoding/json structs: the
// reference the appenders are checked against, and the decode types
// the tests read responses into.
type (
	wireRule struct {
		Index       int    `json:"index"`
		Text        string `json:"text"`
		Description string `json:"description,omitempty"`
	}
	wireScale struct {
		Factor int        `json:"factor"`
		Window int        `json:"window"`
		Start  int        `json:"start"`
		End    int        `json:"end"`
		Rules  []wireRule `json:"rules"`
	}
	wireDetection struct {
		Window int         `json:"window"`
		Start  int         `json:"start"`
		End    int         `json:"end"`
		Rules  []wireRule  `json:"rules"`
		Type   string      `json:"type,omitempty"`
		Scales []wireScale `json:"scales,omitempty"`
	}
	wireSeries struct {
		Name       string          `json:"name"`
		Detections []wireDetection `json:"detections"`
		Error      string          `json:"error,omitempty"`
	}
	wireBatch struct {
		Model   string       `json:"model"`
		Results []wireSeries `json:"results"`
	}
	wireStreamDetection struct {
		WindowStart int        `json:"window_start"`
		WindowEnd   int        `json:"window_end"`
		Rules       []wireRule `json:"rules"`
		Scale       int        `json:"scale,omitempty"`
		Type        string     `json:"type,omitempty"`
	}
	wirePush struct {
		Detections     []wireStreamDetection `json:"detections"`
		PointsConsumed int                   `json:"points_consumed"`
		Ready          bool                  `json:"ready"`
	}
)

// The wire* builders convert cdt results the way the handlers did
// before the appenders encoded cdt types directly: rules and stream
// detections always non-nil, a series' detections nil only when it
// errored, scales nil when empty.
func wireRules(fired []cdt.FiredPredicate) []wireRule {
	out := make([]wireRule, len(fired))
	for i, f := range fired {
		out[i] = wireRule{Index: f.Index, Text: f.Text, Description: f.Description}
	}
	return out
}

func wireBatchOf(model string, results []seriesResult) wireBatch {
	out := wireBatch{Model: model, Results: make([]wireSeries, len(results))}
	for i, r := range results {
		ws := wireSeries{Name: r.name, Error: r.err}
		if r.err == "" {
			ws.Detections = make([]wireDetection, len(r.detections))
		}
		for j, d := range r.detections {
			wd := wireDetection{Window: d.Window, Start: d.Start, End: d.End, Rules: wireRules(d.Fired), Type: string(d.Type)}
			for _, sd := range d.Scales {
				wd.Scales = append(wd.Scales, wireScale{
					Factor: sd.Factor, Window: sd.Window, Start: sd.Start, End: sd.End, Rules: wireRules(sd.Fired),
				})
			}
			ws.Detections[j] = wd
		}
		out.Results[i] = ws
	}
	return out
}

func wirePushOf(dets []cdt.Detection, consumed int, ready bool) wirePush {
	out := wirePush{Detections: make([]wireStreamDetection, len(dets)), PointsConsumed: consumed, Ready: ready}
	for i, d := range dets {
		out.Detections[i] = wireStreamDetection{
			WindowStart: d.WindowStart, WindowEnd: d.WindowEnd, Rules: wireRules(d.Fired), Scale: d.Scale, Type: string(d.Type),
		}
	}
	return out
}

// checkEncoding fails t unless raw is valid JSON, decodes back to want,
// and equals encoding/json's compact encoding of want byte for byte, so
// an appender can never drift from the declared wire schema.
func checkEncoding[T any](t *testing.T, raw []byte, want T) {
	t.Helper()
	if !json.Valid(raw) {
		t.Fatalf("invalid JSON emitted: %s", raw)
	}
	var back T
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip failed: %v\nbody: %s", err, raw)
	}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip changed value:\nin:  %+v\nout: %+v", want, back)
	}
	ref, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(string(raw), "\n"); got != string(ref) {
		t.Fatalf("encoding diverged:\nfast: %s\nref:  %s", got, ref)
	}
}

// batchEncodeCases and pushEncodeCases cover the appenders' escaping,
// error and pyramid shapes; the round-trip and allocation tests share
// them.
var (
	batchExists      = []cdt.FiredPredicate{{Index: 1, Text: "exists"}}
	batchEncodeCases = []struct {
		model   string
		results []seriesResult
	}{
		{"m", []seriesResult{
			{name: "plain", detections: []cdt.WindowDetection{
				{Window: 3, Start: 4, End: 11, Fired: []cdt.FiredPredicate{
					{Index: 1, Text: `exists "PP[H,H]"`, Description: "spike, δ-scaled"},
					{Index: 2, Text: "t\nwo\tlines"},
				}},
			}},
			{name: `quote " backslash \ control` + "\x01", detections: []cdt.WindowDetection{}},
			{name: "errored", err: `labels: "weird" failure`},
			{name: "unicode éé€😀"}, // no detections: DetectExplained returns nil
			{name: "pyramid", detections: []cdt.WindowDetection{
				{Window: 0, Start: 6, End: 13, Type: cdt.TypeCollective, Fired: batchExists,
					Scales: []cdt.ScaleDetection{
						{Factor: 1, Window: 5, Start: 6, End: 13, Fired: batchExists},
						{Factor: 4, Window: 0, Start: 4, End: 27, Fired: []cdt.FiredPredicate{}},
					}},
				{Window: 1, Start: 30, End: 37, Type: cdt.TypePoint,
					Scales: []cdt.ScaleDetection{{Factor: 1, Window: 29, Start: 30, End: 37}}},
			}},
		}},
		{"", nil},
		{"empty", []seriesResult{}},
	}
	pushEncodeCases = []struct {
		dets     []cdt.Detection
		consumed int
		ready    bool
	}{
		{[]cdt.Detection{
			{WindowStart: 7, WindowEnd: 14, Fired: []cdt.FiredPredicate{{Index: 1, Text: "r"}}},
			{WindowStart: 20, WindowEnd: 27, Fired: []cdt.FiredPredicate{}},
		}, 128, true},
		{nil, 0, false},
		{[]cdt.Detection{
			{WindowStart: 8, WindowEnd: 31, Fired: []cdt.FiredPredicate{{Index: 2, Text: "p \"q\""}}, Scale: 4, Type: cdt.TypeContextual},
			{WindowStart: 40, WindowEnd: 47, Scale: 1, Type: cdt.TypePoint},
		}, 64, true},
	}
)

func TestAppendBatchResponseRoundTrip(t *testing.T) {
	for _, tc := range batchEncodeCases {
		checkEncoding(t, appendBatchResponse(nil, tc.model, tc.results), wireBatchOf(tc.model, tc.results))
	}
}

func TestAppendPushPointsResponseRoundTrip(t *testing.T) {
	for _, tc := range pushEncodeCases {
		checkEncoding(t, appendPushPointsResponse(nil, tc.dets, tc.consumed, tc.ready), wirePushOf(tc.dets, tc.consumed, tc.ready))
	}
}

// TestAppendResponseAllocatesNothing: both response appenders, and the
// rule, scale and string appenders they call, encode into a presized
// buffer without allocating.
func TestAppendResponseAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	check := func(what string, encode func([]byte) []byte) {
		t.Helper()
		buf := make([]byte, 0, len(encode(nil)))
		if n := testing.AllocsPerRun(100, func() { buf = encode(buf[:0]) }); n != 0 {
			t.Errorf("%s: %v allocations into a presized buffer, want 0", what, n)
		}
	}
	for _, tc := range batchEncodeCases {
		check("appendBatchResponse "+tc.model, func(dst []byte) []byte {
			return appendBatchResponse(dst, tc.model, tc.results)
		})
	}
	for _, tc := range pushEncodeCases {
		check("appendPushPointsResponse", func(dst []byte) []byte {
			return appendPushPointsResponse(dst, tc.dets, tc.consumed, tc.ready)
		})
	}
}

// appendJSONStringBytewise is appendJSONString as it was before it
// scanned eight bytes at a time: the oracle the word scan is held to.
func appendJSONStringBytewise(dst []byte, s string) []byte {
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

// TestAppendJSONStringMatchesBytewise holds the word scan to the byte
// loop on 200,000 random strings of 0 to 100 bytes, drawn so that the
// escaped bytes ('"', '\\', every control byte) land at every offset of
// a word, next to the bytes around them (0x1f/0x20, 0x21/0x23,
// 0x5b/0x5d), and among bytes from 0x80 up (UTF-8, valid or not).
func TestAppendJSONStringMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	pool := []byte{'"', '\\', 0x00, 0x01, '\n', '\r', '\t', 0x1f, 0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xa2, 0xff, 'a', 'Z', '['}
	buf := make([]byte, 100)
	var got, want []byte
	for trial := range 200000 {
		n := rng.Intn(101)
		clean := rng.Intn(3) == 0 // mostly-clean strings reach the word path
		for i := range buf[:n] {
			switch {
			case clean && rng.Intn(40) > 0:
				buf[i] = byte(0x20 + rng.Intn(0x5f))
				if buf[i] == '"' || buf[i] == '\\' {
					buf[i] = 'x'
				}
			case rng.Intn(2) == 0:
				buf[i] = pool[rng.Intn(len(pool))]
			default:
				buf[i] = byte(rng.Intn(256))
			}
		}
		s := string(buf[:n])
		got = appendJSONString(got[:0], s)
		want = appendJSONStringBytewise(want[:0], s)
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: appendJSONString(%q) = %s, want %s", trial, s, got, want)
		}
	}
}

// BenchmarkAppendJSONString escapes a rule's text (80 bytes, clean) and
// its description (13 bytes) — what every rendered predicate costs in a
// batch response — with the word scan and with the byte loop.
func BenchmarkAppendJSONString(b *testing.B) {
	texts := []string{
		"[PP[L,H], CPN[H,L], SCN[Z,L], SCP[L,Z]] AND NOT [CST[Z,Z], CST[Z,Z], PN[-L,-H]]",
		"negative peak",
	}
	buf := make([]byte, 0, 256)
	for _, k := range []struct {
		name   string
		encode func([]byte, string) []byte
	}{{"word", appendJSONString}, {"bytewise", appendJSONStringBytewise}} {
		for _, s := range texts {
			b.Run(fmt.Sprintf("%s/%d", k.name, len(s)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf = k.encode(buf[:0], s)
				}
			})
		}
	}
}
