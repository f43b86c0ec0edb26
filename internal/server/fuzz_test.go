package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"unicode/utf8"
)

// FuzzHandlers sends arbitrary bodies to the hot handlers of a server
// backed by a model directory — batch detect on a plain model and on a
// pyramid, stream creation, and point pushes into a plain and a pyramid
// session — and requires that no call panics or answers 5xx and that
// every response with a body carries valid JSON in valid UTF-8.
func FuzzHandlers(f *testing.F) {
	dir := f.TempDir()
	writeModel(f, dir, "spikes", trainModel(f))
	writePyramid(f, dir, "multi", trainPyramid(f))
	s, err := New(Config{ModelDir: dir})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	serve := func(t *testing.T, method, path string, body []byte) (int, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		got := rec.Body.Bytes()
		if rec.Code >= 500 {
			t.Fatalf("%s %s = %d: %s\nbody: %q", method, path, rec.Code, got, body)
		}
		if rec.Code != http.StatusNoContent && !json.Valid(got) {
			t.Fatalf("%s %s = %d with invalid JSON %q\nbody: %q", method, path, rec.Code, got, body)
		}
		if !utf8.Valid(got) {
			t.Fatalf("%s %s = %d with invalid UTF-8 %q\nbody: %q", method, path, rec.Code, got, body)
		}
		return rec.Code, got
	}
	open := func(body string) string {
		var created createStreamResponse
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/streams", bytes.NewReader([]byte(body))))
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil || created.ID == "" {
			f.Fatalf("create stream %s = %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		return "/streams/" + created.ID + "/points"
	}
	pushes := []string{
		open(`{"model":"spikes","min":60,"max":420}`),
		open(`{"model":"multi","min":0,"max":500}`),
	}

	streamBodies := []string{
		`{"model":"spikes","min":0,"max":1}`,
		`{"model":"multi","min":-1e308,"max":1e308}`,
		`{"model":"spikes","min":5,"max":5}`,
		`{"model":"nope"}`,
	}
	for _, body := range slices.Concat(requestBodies, pushBodies, streamBodies) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range append([]string{"/models/spikes/detect", "/models/multi/detect"}, pushes...) {
			serve(t, "POST", path, body)
		}
		if code, got := serve(t, "POST", "/streams", body); code == http.StatusCreated {
			var created createStreamResponse
			if err := json.Unmarshal(got, &created); err != nil {
				t.Fatal(err)
			}
			serve(t, "DELETE", "/streams/"+created.ID, nil)
		}
	})
}
