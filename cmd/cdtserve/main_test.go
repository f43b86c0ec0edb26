package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"cdt/internal/server"
)

func TestNewLogger(t *testing.T) {
	for _, tc := range []struct {
		format, level string
		ok            bool
	}{
		{"text", "info", true},
		{"json", "debug", true},
		{"text", "WARN", true}, // slog.Level.UnmarshalText is case-insensitive
		{"json", "error", true},
		{"yaml", "info", false},
		{"text", "loud", false},
	} {
		l, err := newLogger(tc.format, tc.level)
		if tc.ok && (err != nil || l == nil) {
			t.Errorf("newLogger(%q, %q): unexpected error %v", tc.format, tc.level, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("newLogger(%q, %q): expected error", tc.format, tc.level)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{},                                     // neither -models nor -store
		{"-models", "x", "-store", "y"},        // both backends
		{"-retrain-data", "d", "-models", "x"}, // retraining without a store
		{"-models", "x", "-log-format", "yaml"},
		{"-models", "x", "-log-level", "loud"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): expected error", args)
		}
	}
}

// TestTimedOutRequestsRecord503 serves the public handler as run does,
// with a timeout every request exceeds: clients get 503, and /metrics
// must count the 503 they got, not the 200 the route wrote into the
// timeout handler's discarded buffer. A route can occasionally finish
// before the timeout handler reacts and reach its client; the check
// allows for that race, in which the request still counts as 5xx.
func TestTimedOutRequestsRecord503(t *testing.T) {
	dir := t.TempDir()
	doc := `{"version": 1, "options": {"omega": 5, "delta": 2}, "tree": {"normal": 1, "anomaly": 0}}`
	if err := os.WriteFile(filepath.Join(dir, "m.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(publicHandler(s, time.Nanosecond))
	defer ts.Close()

	const n = 50
	got200 := 0
	for i := 0; i < n; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
		case http.StatusOK:
			got200++
		default:
			t.Fatalf("request %d under a 1ns timeout = %d", i, resp.StatusCode)
		}
	}
	if got200 > n/2 {
		t.Fatalf("%d of %d requests beat a 1ns timeout", got200, n)
	}
	counted := func(body, class string) int {
		m := regexp.MustCompile(`cdtserve_http_requests_total\{code="` + class + `",endpoint="healthz"\} (\d+)`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("/metrics lacks the healthz %s counter", class)
		}
		v, _ := strconv.Atoi(m[1])
		return v
	}
	// The timeout handler answers without waiting for the route, so the
	// last requests may still be finishing: wait for all n to be counted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		ok, failed := counted(rec.Body.String(), "2xx"), counted(rec.Body.String(), "5xx")
		switch {
		case ok > got200:
			t.Fatalf("%d requests counted 2xx, but clients got %d 200s", ok, got200)
		case ok+failed == n:
			return
		case time.Now().After(deadline):
			t.Fatalf("/metrics counted %d 2xx + %d 5xx, want %d requests", ok, failed, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
