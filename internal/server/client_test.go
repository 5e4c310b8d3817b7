package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"crowdpricing/internal/kinds"
)

// clientAgainst returns a Client pointed at a stub handler.
func clientAgainst(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL)
}

// TestClientSurfacesServerErrorBody checks that a structured error reply
// (the daemon's errorResponse JSON) reaches the caller with both the HTTP
// status and the server's message.
func TestClientSurfacesServerErrorBody(t *testing.T) {
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"n 9999999 exceeds the service limit"}`))
	})
	_, err := c.Solve(context.Background(), kinds.KindDeadline, testDeadlineRequest())
	if err == nil {
		t.Fatal("nil error for a 400 response")
	}
	for _, want := range []string{"400", "exceeds the service limit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestClientNon200WithoutJSONBody: a plain-text 500 (a proxy error page,
// say) must still produce a status-bearing error rather than a JSON decode
// failure.
func TestClientNon200WithoutJSONBody(t *testing.T) {
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "upstream exploded", http.StatusInternalServerError)
	})
	_, err := c.Solve(context.Background(), kinds.KindBudget, testBudgetRequest())
	if err == nil {
		t.Fatal("nil error for a 500 response")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Errorf("error %q does not mention the status", err)
	}
}

// TestClientDeclaredLengthIsOnlyAHint: a 200 that declares a terabyte
// Content-Length and sends ten bytes fails with an error. The client sizes
// its read buffer from the header only up to maxBodyBytes, so the lie costs
// the bytes that arrived, not an allocation of the declared size.
func TestClientDeclaredLengthIsOnlyAHint(t *testing.T) {
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.FormatInt(1<<40, 10))
		w.Write([]byte(`{"kind":"d`))
	})
	if _, err := c.Solve(context.Background(), kinds.KindDeadline, testDeadlineRequest()); err == nil {
		t.Fatal("nil error for a body shorter than its declared length")
	}
}

// TestClientMalformedSuccessBody: a 200 whose body is not a SolveResponse
// must fail decoding instead of returning a zero-value response.
func TestClientMalformedSuccessBody(t *testing.T) {
	for name, body := range map[string]string{
		"truncated": `{"kind":"deadline","result":`,
		"not-json":  `<html>ok</html>`,
	} {
		t.Run(name, func(t *testing.T) {
			c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				w.Write([]byte(body))
			})
			if _, err := c.Solve(context.Background(), kinds.KindTradeoff, testTradeoffRequest()); err == nil {
				t.Fatal("malformed 200 body decoded without error")
			}
		})
	}
}

// TestClientContextCanceledMidRequest cancels the context while the server
// is still holding the request, and checks the client returns promptly with
// the cancellation.
func TestClientContextCanceledMidRequest(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	// Registered after clientAgainst's ts.Close cleanup, so it runs first
	// (LIFO) and the handler cannot deadlock Close.
	t.Cleanup(func() { close(release) })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Solve(ctx, kinds.KindBudget, testBudgetRequest())
		done <- err
	}()
	<-inHandler
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not return after cancellation")
	}
}

// TestClientContextTimeout: a deadline that expires mid-request surfaces
// context.DeadlineExceeded.
func TestClientContextTimeout(t *testing.T) {
	release := make(chan struct{})
	c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	})
	t.Cleanup(func() { close(release) })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Solve(ctx, kinds.KindDeadline, testDeadlineRequest())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestClientHealthzErrorPaths: non-200 and malformed bodies from /healthz.
func TestClientHealthzErrorPaths(t *testing.T) {
	t.Run("non-200", func(t *testing.T) {
		c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		})
		if _, err := c.Healthz(context.Background()); err == nil || !strings.Contains(err.Error(), "503") {
			t.Fatalf("err = %v, want a 503 error", err)
		}
	})
	t.Run("malformed-body", func(t *testing.T) {
		c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("not json"))
		})
		if _, err := c.Healthz(context.Background()); err == nil {
			t.Fatal("malformed healthz body decoded without error")
		}
	})
	// A draining daemon's structured reply reaches the caller like any
	// other endpoint's: the message and the Retry-After hint both survive.
	t.Run("error-body", func(t *testing.T) {
		c := clientAgainst(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`))
		})
		_, err := c.Healthz(context.Background())
		var apiErr *APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("err = %v, want an *APIError", err)
		}
		if apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.Message != "draining" || apiErr.RetryAfter != 3*time.Second {
			t.Fatalf("status %d, message %q, RetryAfter %v; want 503, %q, 3s",
				apiErr.StatusCode, apiErr.Message, apiErr.RetryAfter, "draining")
		}
	})
}

// TestClientConnectionRefused: a dead endpoint produces a transport error,
// not a hang or a zero response.
func TestClientConnectionRefused(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // reserved port, nothing listens
	if _, err := c.Solve(context.Background(), kinds.KindBudget, testBudgetRequest()); err == nil {
		t.Fatal("nil error against a dead endpoint")
	}
}

// FuzzDecodeSolve: on any bytes, the client's solve decoder and
// json.Unmarshal into a SolveResponse fail with the same error or succeed
// with equal envelopes. Next to a real writeSolve body, the seeds put the
// first "result": inside an escaped key, a nested object or a string, after
// a case-folded or repeated key, ahead of more members, a second document
// or a Unicode space, or after a head field of the wrong type.
func FuzzDecodeSolve(f *testing.F) {
	s := New(Options{})
	defer s.Close()
	def, _ := kinds.Default().Lookup(kinds.KindDeadline)
	resp, err := s.solveSpec(context.Background(), def.Sample(1, "small"))
	if err != nil {
		f.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.writeSolve(rec, resp)
	f.Add(rec.Body.Bytes())
	for _, body := range []string{
		`{"kind":"deadline","result":`,
		`<html>ok</html>`,
		`{"x\"result":[1]}`,
		`{"RESULT":null,"x\"result":[1]}`,
		`{"RESULT":[1],"result":[2]}`,
		`{"result":[1],"result":[2]}`,
		`{"a":{"result":[1]},"b":2}`,
		`{"a":"x,"result":[1]}`,
		`{ "result" : [1] }`,
		`{"result":1}{"a":2}`,
		`{"result":null}`,
		`{"cache_hit":"yes","result":[1]}`,
		`{"result": [1] , "kind":"x"}`,
		"{\"result\":[1]\u00a0}",
		// Mixed-width rows long enough for engine.ValidJSON's row loop.
		`{"kind":"deadline","cache_hit":true,"result":{"price":[[0,10,100,0,7,42,305,0,123456789,0,5,10,100,1000,0,7,42]],"value":1}}`,
		`{"kind":"deadline","result":[0,10,100,0,7,42,305,0,123456789,0,5,10,100,1000,0,7,42,05,0]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want SolveResponse
		gotErr := decodeSolve(body, &got)
		wantErr := json.Unmarshal(body, &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("decodeSolve error %v, json.Unmarshal error %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeSolve gave %+v, json.Unmarshal %+v", got, want)
		}
	})
}

// warmSolveBody is the body writeSolve sends for a warm hit on the
// paper-scale deadline request.
func warmSolveBody(b *testing.B) []byte {
	b.Helper()
	s := New(Options{})
	defer s.Close()
	req := paperScaleRequest()
	solveOnce(b, s, req)
	resp := solveOnce(b, s, req)
	if !resp.CacheHit {
		b.Fatal("the second solve missed the cache")
	}
	rec := httptest.NewRecorder()
	s.writeSolve(rec, resp)
	if _, ok := splitSolve(rec.Body.Bytes()); !ok {
		b.Fatal("splitSolve cannot split a writeSolve body")
	}
	return rec.Body.Bytes()
}

// BenchmarkDecodeSolve times the typed client's decode of a paper-scale
// warm-hit solve response: the head's decode, one engine.ValidJSON pass
// over the artifact and its copy.
func BenchmarkDecodeSolve(b *testing.B) {
	benchmarkDecodeSolve(b, decodeSolve)
}

// BenchmarkUnmarshalSolve is BenchmarkDecodeSolve with json.Unmarshal, the
// decode a body of any other layout gets.
func BenchmarkUnmarshalSolve(b *testing.B) {
	benchmarkDecodeSolve(b, func(data []byte, out *SolveResponse) error { return json.Unmarshal(data, out) })
}

func benchmarkDecodeSolve(b *testing.B, decode func([]byte, *SolveResponse) error) {
	body := warmSolveBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var resp SolveResponse
		if err := decode(body, &resp); err != nil || !resp.CacheHit {
			b.Fatalf("cache_hit %v, error %v; want a decoded warm hit", resp.CacheHit, err)
		}
	}
}
