package kinds

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"crowdpricing/internal/engine"
)

// TestReadJSONSamples reads json.Marshal's body of sampled deadline
// requests at every size and requires the request itself back, as
// encoding/json decodes it.
func TestReadJSONSamples(t *testing.T) {
	for _, size := range []string{"small", "medium", "paper"} {
		for seed := int64(1); seed <= 8; seed++ {
			want := sampleDeadline(seed, size).(*DeadlineRequest)
			want.Alpha = float64(seed % 3)
			body, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			var got DeadlineRequest
			if !got.ReadJSON(body) {
				t.Fatalf("%s seed %d: reader refused %s", size, seed, body)
			}
			if !reflect.DeepEqual(&got, want) {
				t.Fatalf("%s seed %d: read %+v, want %+v", size, seed, got, *want)
			}
		}
	}
}

// TestReadJSONIntSize reads integers at int size: 2147483648 fits an int
// only where it has 64 bits, and elsewhere encoding/json rejects it for an
// int field too, so the reader must refuse it. GOARCH=386 runs this.
func TestReadJSONIntSize(t *testing.T) {
	for _, c := range []struct {
		n    string
		fits bool
	}{
		{"2147483647", true},
		{"-2147483648", true},
		{"2147483648", strconv.IntSize == 64},
		{"-2147483649", strconv.IntSize == 64},
		{"9223372036854775807", strconv.IntSize == 64},
		{"9223372036854775808", false},
		{"-0", true},
	} {
		body := []byte(`{"n":` + c.n + `}`)
		var req DeadlineRequest
		if got := req.ReadJSON(body); got != c.fits {
			t.Errorf("n %s: reader took it: %v, want %v", c.n, got, c.fits)
		}
		var want DeadlineRequest
		wantErr := json.Unmarshal(body, &want)
		if err := engine.DecodeJSON(body, &req); (err == nil) != (wantErr == nil) || req.N != want.N {
			t.Errorf("n %s: DecodeJSON gave %d, %v; encoding/json %d, %v", c.n, req.N, err, want.N, wantErr)
		}
	}
}

// TestReadJSONKeepsAbsentFields reads bodies into a filled request: keys
// the body leaves out keep their values, as encoding/json leaves them, and
// an empty array gives an empty, non-nil slice.
func TestReadJSONKeepsAbsentFields(t *testing.T) {
	fill := sampleDeadline(1, "small").(*DeadlineRequest)
	got := *fill
	if !got.ReadJSON([]byte(` {"n" : 5, "accept":{"m":7}, "lambdas":[] } `)) {
		t.Fatal("reader refused the body")
	}
	want := *fill
	want.N, want.Accept.M, want.Lambdas = 5, 7, []float64{}
	if !reflect.DeepEqual(got, want) || got.Lambdas == nil {
		t.Fatalf("read %+v, want %+v", got, want)
	}
}

// TestReadJSONRefusalLeavesValue checks that a body refused after some of
// its keys were read leaves the request as it was, its lambdas' backing
// array included, since encoding/json then decodes the body into it.
func TestReadJSONRefusalLeavesValue(t *testing.T) {
	fill := sampleDeadline(1, "small").(*DeadlineRequest)
	before := append([]float64(nil), fill.Lambdas...)
	for _, body := range []string{
		`{"n":5,"lambdas":[1,2],"accept":{"s":1,"s":2}}`,
		`{"n":5,"lambdas":[1,2],"N":6}`,
		`{"lambdas":[1,2,null]}`,
		`{"n":5,"lambdas":[1,2],"alpha":null}`,
		`{"n":5,"lambdas":[1,2],"penalty":1e999}`,
		`{"n":5,"lambdas":[1,2],"n":5}`,
		`[{"n":5}]`,
	} {
		got := *fill
		if got.ReadJSON([]byte(body)) {
			t.Errorf("reader took %s", body)
		}
		if !reflect.DeepEqual(&got, fill) || !reflect.DeepEqual(fill.Lambdas, before) {
			t.Errorf("refusing %s left %+v (lambdas %v), want %+v (lambdas %v)", body, got, fill.Lambdas, *fill, before)
		}
	}
}

// paperDeadlineBody is json.Marshal's body of the sampler's paper-size
// deadline request: the ~1.5 KB body every solve-warm request carries.
func paperDeadlineBody(b *testing.B) []byte {
	body, err := json.Marshal(sampleDeadline(1, "paper"))
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// BenchmarkDecodeDeadlineRequest times engine.DecodeJSON, the server's
// decoder, on a paper-size deadline body: a ValidJSON pass and the reader.
func BenchmarkDecodeDeadlineRequest(b *testing.B) {
	body := paperDeadlineBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req DeadlineRequest
		if err := engine.DecodeJSON(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrictDecodeDeadlineRequest times encoding/json's strict
// decoder on the same body, the decode every request paid before the
// reader.
func BenchmarkStrictDecodeDeadlineRequest(b *testing.B) {
	body := paperDeadlineBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var req DeadlineRequest
		if err := engine.DecodeJSONFrom(bytes.NewReader(body), &req); err != nil {
			b.Fatal(err)
		}
	}
}
