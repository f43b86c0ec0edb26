package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// readPooled reads body through readBody as a request of the given
// declared length would.
func readPooled(t *testing.T, body string, contentLength int64) *[]byte {
	t.Helper()
	r := httptest.NewRequest("POST", "/", strings.NewReader(body))
	r.ContentLength = contentLength
	bp, err := readBody(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(*bp) != body {
		t.Fatalf("readBody read %q, want %q", *bp, body)
	}
	return bp
}

// The parsers copy every name and number out of the body, so
// overwriting a pooled buffer after its parse changes no parsed value:
// the shadow queue keeps a request's values after its buffer is reused.
func TestParsedRequestOutlivesPooledBody(t *testing.T) {
	const batch = `{"series":[{"name":"plain","values":[1.5,-2,3e2]},{"name":"escé\"q","values":[0.25]}]}`
	want := batchRequest{Series: []seriesPayload{
		{Name: "plain", Values: []float64{1.5, -2, 300}},
		{Name: "escé\"q", Values: []float64{0.25}},
	}}
	bp := readPooled(t, batch, int64(len(batch)))
	req, err := parseBatchRequest(*bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range *bp {
		(*bp)[i] = '9'
	}
	putBody(bp)
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("after overwriting the body: %+v, want %+v", req, want)
	}

	const push = `{"points":[0.5,7,-1e-3]}`
	bp = readPooled(t, push, -1)
	pr, err := parsePushPoints(*bp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range *bp {
		(*bp)[i] = '9'
	}
	putBody(bp)
	if wantPoints := []float64{0.5, 7, -1e-3}; !reflect.DeepEqual(pr.Points, wantPoints) {
		t.Fatalf("after overwriting the body: %v, want %v", pr.Points, wantPoints)
	}
}

// A declared Content-Length is honoured only up to maxBodyHint before
// the bytes arrive, and a buffer that grew past maxPooledBody is not
// pooled.
func TestReadBodyBoundsItsBuffer(t *testing.T) {
	bp := readPooled(t, `{"points":[1]}`, 1<<40)
	// slices.Grow rounds up to an allocation size class.
	if c := cap(*bp); c > 2*maxBodyHint {
		t.Fatalf("a declared 1 TiB body allocated %d bytes up front, want about %d", c, maxBodyHint)
	}
	putBody(bp)

	big := make([]byte, maxPooledBody+1)
	putBody(&big)
	for i := 0; i < 4; i++ {
		if got := bodyPool.Get().(*[]byte); cap(*got) > maxPooledBody {
			t.Fatalf("pool returned a %d-byte buffer, above maxPooledBody", cap(*got))
		}
	}
}

// chunked hides a reader's length from http.Client, which then sends
// the body chunked, without a Content-Length.
type chunked struct{ io.Reader }

func post(t *testing.T, url string, body io.Reader) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestChunkedBodiesDecode(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	req := batchRequest{Series: []seriesPayload{
		{Name: "a", Values: spiky("a", 300, []int{120, 240}, 1).Values},
		{Name: "b", Values: spiky("b", 300, []int{80}, 2).Values},
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/models/spikes/detect"
	code, sized := post(t, url, bytes.NewReader(body))
	if code != http.StatusOK {
		t.Fatalf("sized batch = %d: %s", code, sized)
	}
	code, streamed := post(t, url, chunked{bytes.NewReader(body)})
	if code != http.StatusOK {
		t.Fatalf("chunked batch = %d: %s", code, streamed)
	}
	if !bytes.Equal(sized, streamed) {
		t.Fatalf("chunked batch response differs:\n%s\nwant\n%s", streamed, sized)
	}
	if !bytes.Contains(sized, []byte(`"rules"`)) {
		t.Fatalf("batch found no detections: %s", sized)
	}

	var created createStreamResponse
	if code := doJSON(t, "POST", ts.URL+"/streams", createStreamRequest{Model: "spikes", Min: 60, Max: 420}, &created); code != http.StatusCreated {
		t.Fatalf("create stream = %d", code)
	}
	push, err := json.Marshal(pushPointsRequest{Points: req.Series[0].Values})
	if err != nil {
		t.Fatal(err)
	}
	code, out := post(t, ts.URL+"/streams/"+created.ID+"/points", chunked{bytes.NewReader(push)})
	var pr wirePush
	if err := json.Unmarshal(out, &pr); code != http.StatusOK || err != nil {
		t.Fatalf("chunked push = %d (%v): %s", code, err, out)
	}
	if pr.PointsConsumed != len(req.Series[0].Values) || len(pr.Detections) == 0 {
		t.Fatalf("chunked push consumed %d of %d points, %d detections", pr.PointsConsumed, len(req.Series[0].Values), len(pr.Detections))
	}
}
