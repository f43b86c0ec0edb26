package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	cdt "cdt"
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
// from both corpora. Invalid UTF-8 is skipped: passing it through
// instead of substituting U+FFFD is a documented divergence.
func fuzzDecodeParity[T any](f *testing.F, parse func([]byte) (T, error)) {
	for _, body := range slices.Concat(requestBodies, pushBodies) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if !utf8.Valid(body) {
			t.Skip("invalid UTF-8: documented divergence")
		}
		checkDecodeParity(t, body, parse)
	})
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
