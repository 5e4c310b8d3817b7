package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
)

// bodyCase is one deadline request body posted by
// TestDeadlineBodyResponsesGolden. reader says whether kinds.DeadlineRequest
// reads the body itself; every other body must go to encoding/json.
type bodyCase struct {
	name   string
	body   []byte
	reader bool
}

// baseDeadlineBody is the kinds sampler's small deadline problem (seed 1)
// as json.Marshal writes it: the body every case below edits.
func baseDeadlineBody(t testing.TB) []byte {
	t.Helper()
	def, _ := kinds.Default().Lookup(kinds.KindDeadline)
	body, err := json.Marshal(def.Sample(1, "small"))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// edit replaces the first old in body with new, and fails the test when
// body holds no old.
func edit(t testing.TB, body []byte, old, new string) []byte {
	t.Helper()
	if !bytes.Contains(body, []byte(old)) {
		t.Fatalf("body %s holds no %q", body, old)
	}
	return bytes.Replace(body, []byte(old), []byte(new), 1)
}

// overLimit returns a body of maxBodyBytes+1 bytes that starts with prefix
// and never closes the array prefix opens, so a reader of the body hits
// the limit before the value ends.
func overLimit(prefix string) []byte {
	b := append([]byte(prefix), bytes.Repeat([]byte("1,"), (maxBodyBytes+1-len(prefix))/2+1)...)
	return b[:maxBodyBytes+1]
}

// deadlineBodies is the table of deadline request bodies held to their
// recorded responses. The reader must hand most of them to encoding/json's
// strict decoder, since each holds something a reader of json.Marshal's
// layout does not take: a key in another case, a repeated key or an
// escaped one, a null, an integer field written as a float, a string or an
// integer out of an int's range, an unknown field, a second value after
// the object, a body cut short or over maxBodyBytes, or no object at all.
// The reader takes the last two, json.Marshal's layout reordered and
// spaced and with an empty arrival list, and takes 2147483648 where an int
// has 64 bits. The cases that decode to the base problem are answered from
// the cache, so every response is the same on each run.
func deadlineBodies(t testing.TB) []bodyCase {
	base := baseDeadlineBody(t)
	lambdas := base[bytes.Index(base, []byte(`"lambdas":`)):]
	lambdas = lambdas[:bytes.IndexByte(lambdas, ']')+1]
	return []bodyCase{
		{"folded-key", edit(t, base, `{"n":`, `{"N":`), false},
		{"repeated-key", edit(t, base, `{"n":16,`, `{"n":16,"n":0,`), false},
		{"escaped-key", edit(t, base, `{"n":`, `{"\u006e":`), false},
		{"null-lambdas", edit(t, base, string(lambdas), `"lambdas":null`), false},
		{"null-alpha", edit(t, base, `"penalty":`, `"alpha":null,"penalty":`), false},
		{"float-int", edit(t, base, `"n":16,`, `"n":16.0,`), false},
		{"string-int", edit(t, base, `"n":16,`, `"n":"16",`), false},
		{"int64-overflow", edit(t, base, `"n":16,`, `"n":9223372036854775808,`), false},
		{"int32-overflow", edit(t, base, `"n":16,`, `"n":2147483648,`), strconv.IntSize == 64},
		{"float-overflow", edit(t, base, `"penalty":100`, `"penalty":1e400`), false},
		{"unknown-field", edit(t, base, `"penalty":`, `"workers":2,"penalty":`), false},
		{"unknown-accept-field", edit(t, base, `"accept":{`, `"accept":{"k":1,`), false},
		{"second-value", append(append([]byte{}, base...), `{"n":1}`...), false},
		{"trailing-garbage", append(append([]byte{}, base...), ` x`...), false},
		{"truncated", base[:len(base)/2], false},
		{"over-limit", overLimit(`{"n":16,"lambdas":[`), false},
		{"null", []byte(`null`), false},
		{"array", []byte(`[]`), false},
		{"empty", nil, false},
		{"reordered-spaced", reorderedSpaced(t, base, lambdas), true},
		{"empty-lambdas", edit(t, base, string(lambdas), `"lambdas":[]`), true},
	}
}

// reorderedSpaced rewrites base with its keys in reverse order, the accept
// curve's too, with whitespace between every token and the floats spelled
// another way that parses to the same value.
func reorderedSpaced(t testing.TB, base, lambdas []byte) []byte {
	var req kinds.DeadlineRequest
	if err := json.Unmarshal(base, &req); err != nil {
		t.Fatal(err)
	}
	list := strings.ReplaceAll(string(lambdas[len(`"lambdas":[`):len(lambdas)-1]), ",", " ,\n\t")
	return fmt.Appendf(nil, "\r\n { \"trunc_eps\" : 1E-6 ,\t\"penalty\":%d.0, \"max_price\" : %d , \"min_price\":%d,\n"+
		"  \"accept\" : { \"m\" : %g , \"b\":%g,\"s\" : %v } ,\n  \"lambdas\" : [ %s ] ,"+
		" \"intervals\":%d , \"horizon_hours\" : %ge0 , \"n\" :%d } \n",
		int(req.Penalty), req.MaxPrice, req.MinPrice, req.Accept.M, req.Accept.B, req.Accept.S,
		list, req.Intervals, req.HorizonHours, req.N)
}

// TestDeadlineBodyResponsesGolden posts every body of deadlineBodies to
// POST /v1/solve/deadline, and wrapped as the request of a deadline
// campaign to POST /v1/campaigns, each to a fresh server that has solved
// the base problem, and compares each status and body byte for byte with
// testdata/deadline_bodies.golden (one "case route status body" line each).
// The file was recorded before the service had a reader, when
// encoding/json decoded every body, so the service must answer every body
// as it did then, whichever path decodes it now. A failure logs the
// recomputed file. The file is recorded where an int has 64 bits:
// elsewhere "n":2147483648 is a decode error.
func TestDeadlineBodyResponsesGolden(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the recorded responses assume a 64-bit int")
	}
	golden, err := os.ReadFile("testdata/deadline_bodies.golden")
	if err != nil {
		t.Fatal(err)
	}
	var base kinds.DeadlineRequest
	if err := json.Unmarshal(baseDeadlineBody(t), &base); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, c := range deadlineBodies(t) {
		wrapped := append(append([]byte(`{"kind":"deadline","request":`), c.body...), '}')
		if c.name == "over-limit" {
			wrapped = overLimit(`{"kind":"deadline","request":{"n":16,"lambdas":[`)
		}
		for _, post := range []struct {
			route string
			body  []byte
		}{{"/v1/solve/deadline", c.body}, {"/v1/campaigns", wrapped}} {
			status, body := postFresh(t, base, post.route, post.body)
			fmt.Fprintf(&got, "%s %s %d %s\n", c.name, post.route, status, bytes.TrimSuffix(body, []byte("\n")))
		}
	}
	if got.String() != string(golden) {
		t.Fatalf("responses differ from testdata/deadline_bodies.golden; recomputed file:\n%s", got.String())
	}
}

// postFresh posts body to route on a new server whose cache already holds
// the solved base problem, and returns the response status and body.
func postFresh(t *testing.T, base kinds.DeadlineRequest, route string, body []byte) (int, []byte) {
	t.Helper()
	s := New(Options{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := NewClient(ts.URL).Solve(t.Context(), kinds.KindDeadline, base); err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+route, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", route, err)
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatalf("%s: %v", route, err)
	}
	return res.StatusCode, out
}

// TestDeadlineBodiesReaderTakes checks which bodies of deadlineBodies the
// deadline reader takes itself: on every other one it must hand the body
// to encoding/json and leave the value as it found it.
func TestDeadlineBodiesReaderTakes(t *testing.T) {
	for _, c := range deadlineBodies(t) {
		var req kinds.DeadlineRequest
		if got := engine.ValidJSON(c.body) && req.ReadJSON(c.body); got != c.reader {
			t.Errorf("%s: reader took the body: %v, want %v", c.name, got, c.reader)
		}
		if !c.reader && !reflect.DeepEqual(req, kinds.DeadlineRequest{}) {
			t.Errorf("%s: reader refused the body and left %+v", c.name, req)
		}
	}
}

// strictDecode is the reference decoder: encoding/json's Decoder, which
// rejects unknown fields, on one value of body.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzDecodeDeadlineRequest holds engine.DecodeJSON to the strict decoder
// on deadline requests: on every body it must leave the same value
// (reflect.DeepEqual, so a nil and an empty lambdas differ) and return an
// error with the same text, decoding into a zero request or, with prefill,
// into a copy of a sampled one. The seeds are the sampler's bodies at
// every size and deadlineBodies, but for the body over maxBodyBytes, which
// only the server's read limit makes special.
func FuzzDecodeDeadlineRequest(f *testing.F) {
	def, _ := kinds.Default().Lookup(kinds.KindDeadline)
	for _, size := range []string{"small", "medium", "paper"} {
		for seed := int64(1); seed <= 2; seed++ {
			body, err := json.Marshal(def.Sample(seed, size))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body, seed == 2)
		}
	}
	for _, c := range deadlineBodies(f) {
		if c.name != "over-limit" {
			f.Add(c.body, false)
		}
	}
	fill := def.Sample(3, "small").(*kinds.DeadlineRequest)
	f.Fuzz(func(t *testing.T, body []byte, prefill bool) {
		var got, want kinds.DeadlineRequest
		if prefill {
			got, want = *fill, *fill
			got.Lambdas = slices.Clone(fill.Lambdas)
			want.Lambdas = slices.Clone(fill.Lambdas)
		}
		gotErr := engine.DecodeJSON(body, &got)
		wantErr := strictDecode(body, &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("body %q: error %v, strict decoder %v", body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: decoded %+v, strict decoder %+v", body, got, want)
		}
	})
}

// TestReadIntoMatchesStreamingDecoder cuts bodies short with a read error
// at every offset and checks that readInto, which reads a body whole
// before it decodes, ends as the streaming decoder does on the same
// reader: the same value and the same error. A value that ends before the
// failed read decodes; any other fails with the decoder's first error.
func TestReadIntoMatchesStreamingDecoder(t *testing.T) {
	failure := errors.New("connection reset")
	bodies := [][]byte{baseDeadlineBody(t), []byte(`{"n":1} {"n":2}`), []byte(`{"n":1,}`), []byte(`{"n":1.5}`)}
	for _, body := range bodies {
		for cut := 0; cut <= len(body); cut++ {
			src := func() io.Reader {
				return io.MultiReader(bytes.NewReader(body[:cut]), failedReader{failure})
			}
			var got, want kinds.DeadlineRequest
			gotErr := readInto(src(), int64(len(body)), &got)
			wantErr := engine.DecodeJSONFrom(src(), &want)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("body %q cut at %d: readInto %+v, %v; streaming decoder %+v, %v", body, cut, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestReadIntoPoolsOnlySmallBuffers decodes a body larger than
// maxPooledBody and checks that its buffer does not come back from the
// pool, so one large body cannot keep its buffer resident.
func TestReadIntoPoolsOnlySmallBuffers(t *testing.T) {
	req := kinds.DeadlineRequest{Lambdas: make([]float64, maxPooledBody/2)}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var got kinds.DeadlineRequest
	if err := readInto(bytes.NewReader(body), int64(len(body)), &got); err != nil || len(got.Lambdas) != len(req.Lambdas) {
		t.Fatalf("decoded %d lambdas, error %v; want %d", len(got.Lambdas), err, len(req.Lambdas))
	}
	for range 4 {
		if buf := requestBuffers.Get().(*[]byte); cap(*buf) > maxPooledBody {
			t.Fatalf("the pool returned a %d-byte buffer, above its cap of %d", cap(*buf), maxPooledBody)
		}
	}
}
