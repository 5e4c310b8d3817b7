package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
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
	_, err := c.Solve(context.Background(), KindDeadline, testDeadlineRequest())
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
	_, err := c.Solve(context.Background(), KindBudget, testBudgetRequest())
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
	if _, err := c.Solve(context.Background(), KindDeadline, testDeadlineRequest()); err == nil {
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
			if _, err := c.Solve(context.Background(), KindTradeoff, testTradeoffRequest()); err == nil {
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
		_, err := c.Solve(ctx, KindBudget, testBudgetRequest())
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
	_, err := c.Solve(ctx, KindDeadline, testDeadlineRequest())
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
	if _, err := c.Solve(context.Background(), KindBudget, testBudgetRequest()); err == nil {
		t.Fatal("nil error against a dead endpoint")
	}
}
