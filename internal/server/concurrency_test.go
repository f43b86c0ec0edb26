package server

// Concurrency hammer: batch scoring against one registry model from N
// goroutines while the registry hot-reloads underneath them, plus M
// parallel streaming sessions. Run under `go test -race` — the race
// detector is the assertion; the explicit checks only confirm no
// request was dropped mid-reload.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	cdt "cdt"
)

func TestConcurrentBatchDetectReloadAndStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency hammer")
	}
	_, ts, dir := newTestServer(t, Config{Workers: 4})

	const (
		batchClients  = 8
		batchRequests = 10
		reloads       = 20
		streamClients = 6
		streamChunks  = 10
	)
	feed := spiky("feed", 240, []int{120}, 11)
	var (
		wg            sync.WaitGroup
		batchFailures atomic.Int64
		detections    atomic.Int64
	)

	// N batch clients hammering one model.
	for c := 0; c < batchClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batchRequests; i++ {
				req := batchRequest{Series: []seriesPayload{
					{Name: "a", Values: feed.Values},
					{Name: "b", Values: feed.Values[:200]},
				}}
				var resp wireBatch
				if code := doJSON(t, "POST", ts.URL+"/models/spikes/detect", req, &resp); code != 200 {
					batchFailures.Add(1)
					continue
				}
				for _, r := range resp.Results {
					if r.Error != "" {
						batchFailures.Add(1)
					}
					detections.Add(int64(len(r.Detections)))
				}
			}
		}()
	}

	// Concurrent hot-reloads: every in-flight batch request must keep
	// serving off the model pointer it resolved before the swap.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reloads; i++ {
			writeModel(t, dir, "spikes", trainModel(t))
			var rel struct {
				Models int `json:"models"`
			}
			if code := doJSON(t, "POST", ts.URL+"/models/reload", nil, &rel); code != 200 {
				t.Errorf("reload %d failed with %d", i, code)
			}
		}
	}()

	// M parallel streaming sessions, each with its own handle.
	for c := 0; c < streamClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var created createStreamResponse
			if code := doJSON(t, "POST", ts.URL+"/streams",
				createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &created); code != 201 {
				t.Errorf("client %d: create stream = %d", c, code)
				return
			}
			url := ts.URL + "/streams/" + created.ID + "/points"
			chunk := len(feed.Values) / streamChunks
			for i := 0; i < streamChunks; i++ {
				points := feed.Values[i*chunk : (i+1)*chunk]
				var resp wirePush
				if code := doJSON(t, "POST", url, pushPointsRequest{Points: points}, &resp); code != 200 {
					t.Errorf("client %d: push = %d", c, code)
					return
				}
				detections.Add(int64(len(resp.Detections)))
			}
			if code := doJSON(t, "DELETE", ts.URL+"/streams/"+created.ID, nil, nil); code != 204 {
				t.Errorf("client %d: delete = %d", c, code)
			}
		}(c)
	}

	wg.Wait()
	if n := batchFailures.Load(); n != 0 {
		t.Fatalf("%d batch requests failed during concurrent reloads", n)
	}
	if detections.Load() == 0 {
		t.Fatal("hammer produced zero detections; the test is not exercising the scoring path")
	}
}

// TestConcurrentSessionsOnOneStream serializes concurrent pushes to the
// SAME session through the per-session mutex — cdt.Stream itself is not
// concurrency-safe, so this is the guard the session handle exists for.
func TestConcurrentPushesToOneSession(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	m, _ := s.registry.Get("spikes")
	sess, err := s.sessions.Create("spikes", m.art, cdt.Scale{Min: 60, Max: 420}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := spiky("feed", 200, []int{100}, 5)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range feed.Values {
				sess.Push(context.Background(), []float64{v})
			}
		}()
	}
	wg.Wait()
	if _, consumed, _ := sess.Push(context.Background(), nil); consumed != 8*len(feed.Values) {
		t.Fatalf("consumed %d points, want %d", consumed, 8*len(feed.Values))
	}
}
