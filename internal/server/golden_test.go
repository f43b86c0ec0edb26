package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// serveBody runs one request through h without a socket and returns the
// status and response body.
func serveBody(tb testing.TB, h http.Handler, method, path string, body any) (int, []byte) {
	tb.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			tb.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

// TestWireGolden pins the response bodies of the two hot endpoints byte
// for byte: batch detect on a plain model (a series with detections, a
// quiet one, and one shorter than ω with its error) and on a pyramid
// (type tags and per-scale breakdowns), and point pushes with no
// detections, plain detections, and pyramid scale/type tags. Regenerate
// with `go test ./internal/server -run TestWireGolden -update` and
// review the diff.
func TestWireGolden(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "spikes", trainModel(t))
	writePyramid(t, dir, "multi", trainPyramid(t))
	s, err := New(Config{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	openStream := func(model string, min, max float64) string {
		var created createStreamResponse
		code, body := serveBody(t, h, "POST", "/streams", createStreamRequest{Model: model, Min: min, Max: max})
		if code != http.StatusCreated {
			t.Fatalf("create %s stream = %d: %s", model, code, body)
		}
		if err := json.Unmarshal(body, &created); err != nil {
			t.Fatal(err)
		}
		return "/streams/" + created.ID + "/points"
	}
	feed := spiky("feed", 300, []int{120, 240}, 99)
	eval := plateauSpiky("eval", 600, []int{150}, 380, 48, 11)

	runs := []struct {
		name string
		path string
		body any
	}{
		{"detect-plain", "/models/spikes/detect", batchRequest{Series: []seriesPayload{
			{Name: "feed", Values: feed.Values},
			{Name: `quiet "é" \ tab` + "\t", Values: spiky("quiet", 200, nil, 5).Values},
			{Name: "short", Values: feed.Values[:4]},
		}}},
		{"detect-pyramid", "/models/multi/detect", batchRequest{Series: []seriesPayload{
			{Name: "eval", Values: eval.Values},
		}}},
		{"push-quiet", openStream("spikes", 60, 420), pushPointsRequest{Points: feed.Values[:40]}},
		{"push-plain", openStream("spikes", 60, 420), pushPointsRequest{Points: feed.Values}},
		{"push-pyramid", openStream("multi", 0, 500), pushPointsRequest{Points: eval.Values}},
	}
	for _, rc := range runs {
		code, got := serveBody(t, h, "POST", rc.path, rc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", rc.name, code, got)
		}
		path := filepath.Join("testdata", "golden", rc.name+".json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to record)", rc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: body diverged from %s\n--- got ---\n%s--- want ---\n%s", rc.name, path, got, want)
		}
	}
}
