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

func TestAppendBatchResponseRoundTrip(t *testing.T) {
	resps := []batchResponse{
		{Model: "m", Results: []seriesResult{
			{Name: "plain", Detections: []batchDetection{
				{Window: 3, Start: 4, End: 11, Rules: []firedRule{
					{Index: 1, Text: `exists "PP[H,H]"`, Description: "spike, δ-scaled"},
					{Index: 2, Text: "t\nwo\tlines"},
				}},
			}},
			{Name: `quote " backslash \ control` + "\x01", Detections: []batchDetection{}},
			{Name: "errored", Error: `labels: "weird" failure`},
			{Name: "unicode éé€😀"},
			{Name: "pyramid", Detections: []batchDetection{
				{Window: 0, Start: 6, End: 13, Type: "collective",
					Rules: []firedRule{{Index: 1, Text: "exists"}},
					Scales: []scaleDetail{
						{Factor: 1, Window: 5, Start: 6, End: 13, Rules: []firedRule{{Index: 1, Text: "exists"}}},
						{Factor: 4, Window: 0, Start: 4, End: 27, Rules: []firedRule{}},
					}},
				{Window: 1, Start: 30, End: 37, Type: "point",
					Rules:  []firedRule{},
					Scales: []scaleDetail{{Factor: 1, Window: 29, Start: 30, End: 37, Rules: nil}}},
			}},
		}},
		{Model: ""},
		{Model: "empty", Results: []seriesResult{}},
	}
	for _, resp := range resps {
		raw := appendBatchResponse(nil, resp)
		if !json.Valid(raw) {
			t.Fatalf("invalid JSON emitted: %s", raw)
		}
		var back batchResponse
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("round trip failed: %v\nbody: %s", err, raw)
		}
		if !reflect.DeepEqual(back, resp) {
			t.Fatalf("round trip changed value:\nin:  %+v\nout: %+v", resp, back)
		}
		// Byte-for-byte match with encoding/json's compact form, so the
		// appender can never drift from the declared wire schema.
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(string(raw), "\n"); got != string(want) {
			t.Fatalf("encoding diverged:\nfast: %s\nref:  %s", got, want)
		}
	}
}

func TestAppendPushPointsResponseRoundTrip(t *testing.T) {
	resps := []pushPointsResponse{
		{Detections: []streamDetection{
			{WindowStart: 7, WindowEnd: 14, Rules: []firedRule{{Index: 1, Text: "r"}}},
			{WindowStart: 20, WindowEnd: 27, Rules: []firedRule{}},
		}, PointsConsumed: 128, Ready: true},
		{Detections: []streamDetection{}, PointsConsumed: 0, Ready: false},
		{Detections: []streamDetection{
			{WindowStart: 8, WindowEnd: 31, Rules: []firedRule{{Index: 2, Text: "p"}}, Scale: 4, Type: "contextual"},
			{WindowStart: 40, WindowEnd: 47, Rules: []firedRule{}, Scale: 1, Type: "point"},
		}, PointsConsumed: 64, Ready: true},
	}
	for _, resp := range resps {
		raw := appendPushPointsResponse(nil, resp)
		var back pushPointsResponse
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("round trip failed: %v\nbody: %s", err, raw)
		}
		if !reflect.DeepEqual(back, resp) {
			t.Fatalf("round trip changed value:\nin:  %+v\nout: %+v", resp, back)
		}
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSuffix(string(raw), "\n"); got != string(want) {
			t.Fatalf("encoding diverged:\nfast: %s\nref:  %s", got, want)
		}
	}
}
