package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"crowdpricing/internal/engine"
	"crowdpricing/internal/kinds"
)

// validCases are ValidJSON's edge cases. deep adds the documents nested
// 10,000 and 10,001 levels, which the fuzzer does not get as seeds: they
// slow it to a crawl.
func validCases(deep bool) [][]byte {
	var cases [][]byte
	for _, s := range []string{
		// Empty, blank and trailing input.
		"", " ", " \t\r\n", "1 2", "{} {}", "[]x", "truex", "nul", " true \n", "[1] ", "\"a\"\"b\"", "0 ", "1\x00",
		// Literals.
		"true", "false", "null", "True", "nulL", "fals", "[true,false,null]", "[true1]",
		// Numbers.
		"0", "-0", "1", "-", "01", "-01", "1.", ".5", "1e", "1e+", "1e-", "1E5", "1e+5", "-0.0e-0",
		"123456789", "1.5e3", "+1", "1.e5", "1e5.3", "--1", "0x1", "-a", "00", "1.5.", "0e0", "9E-9",
		// Strings and every escape.
		`""`, `"abc"`, `"abc`, `"`, `"\"`, `"\"\\\/\b\f\n\r\t"`, `"\u00e9"`, `"\uABCD"`, `"\uabcdx"`, `"é\u00E9"`,
		`"\x"`, `"\u12"`, `"\u12`, `"\u12g4"`, `"\u"`, `"\U1234"`, `"\`, `"\u123"`,
		// Arrays.
		"[]", "[ ]", "[", "]", "[1,]", "[,1]", "[1 2]", "[1,2]", "[ 1 , 2 ]", "[1\n,2]", "[0]", "[0,1]",
		"[00]", "[01]", "[10,20]", "[1x]", "[1 ]", "[-]", "[-1,-0]", "[1e2]", "[1.5,2]", "[1", "[1,",
		"[[1,2],[3]]", "[[]]", "[[]", "[]]", `["a",1]`, "[1,\"\"]", "[1}", "[9,9]", "[9]]",
		// Objects.
		"{}", "{ }", "{", "}", `{"a":1}`, `{"a":1,}`, `{1:2}`, `{"a" 1}`, `{"a":}`, `{"a"}`, `{"a":1`,
		`{"a":1 "b":2}`, ` { "a" : [ 1 , 2 ] , "b" : { } } `, `{"a":1]`, `{,}`, `{"a":1,"a":2}`, `{a:1}`,
		`{"a\"":1}`, `{"a":[1,2,{"b":null}]}`, `{"a":1}}`,
	} {
		cases = append(cases, []byte(s))
	}
	// Each whitespace byte, and bytes JSON does not count as whitespace,
	// around every token.
	for _, ws := range []string{" ", "\t", "\r", "\n", "\v", "\f", "\u00a0"} {
		cases = append(cases,
			[]byte(ws+"1"+ws),
			[]byte("["+ws+"1"+ws+","+ws+"2"+ws+"]"),
			[]byte("{"+ws+`"a"`+ws+":"+ws+"1"+ws+","+ws+`"b"`+ws+":"+ws+"[]"+ws+"}"))
	}
	for c := 0; c < 0x20; c++ {
		cases = append(cases, []byte{'"', 'a', byte(c), 'b', '"'})
	}
	for c := 0x80; c <= 0xff; c++ {
		cases = append(cases, []byte{'"', byte(c), '"'}, []byte{byte(c)}, []byte{'[', '1', ',', byte(c), ']'})
	}
	if deep {
		for _, n := range []int{10000, 10001} {
			cases = append(cases,
				[]byte(strings.Repeat("[", n)+strings.Repeat("]", n)),
				[]byte(strings.Repeat(`{"a":`, n)+"1"+strings.Repeat("}", n)),
				[]byte(strings.Repeat(`[{"a":`, n/2)+strings.Repeat("[", n%2)+"1"+strings.Repeat("]", n%2)+strings.Repeat("}]", n/2)))
		}
	}
	return cases
}

// deadlineArtifact is the artifact the deadline kind serves for its
// sampler's seed-1 problem at size.
func deadlineArtifact(tb testing.TB, size string) []byte {
	tb.Helper()
	return kindArtifact(tb, kinds.KindDeadline, size)
}

// kindArtifact is the artifact a built-in kind serves for its sampler's
// seed-1 problem at size.
func kindArtifact(tb testing.TB, kind, size string) []byte {
	tb.Helper()
	def, ok := kinds.Default().Lookup(kind)
	if !ok {
		tb.Fatalf("%s kind not registered", kind)
	}
	b, err := def.Sample(1, size).Solve(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestValidJSONMatchesEncodingJSON(t *testing.T) {
	var valid int
	for _, c := range validCases(true) {
		got, want := engine.ValidJSON(c), json.Valid(c)
		if got != want {
			t.Errorf("ValidJSON(%.40q) = %v, json.Valid = %v", c, got, want)
		}
		if want {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("no case is valid JSON")
	}
}

// TestValidJSONArtifactSweep: on a small deadline artifact, every one-byte
// substitution and every prefix gets json.Valid's answer.
func TestValidJSONArtifactSweep(t *testing.T) {
	art := deadlineArtifact(t, "small")
	if !engine.ValidJSON(art) {
		t.Fatal("ValidJSON rejects the deadline artifact")
	}
	mut := make([]byte, len(art))
	for i := range art {
		for _, c := range []byte(`x]},:"-1 `) {
			copy(mut, art)
			mut[i] = c
			if got, want := engine.ValidJSON(mut), json.Valid(mut); got != want {
				t.Fatalf("byte %d set to %q: ValidJSON = %v, json.Valid = %v", i, c, got, want)
			}
		}
		if got, want := engine.ValidJSON(art[:i]), json.Valid(art[:i]); got != want {
			t.Fatalf("%d-byte prefix: ValidJSON = %v, json.Valid = %v", i, got, want)
		}
	}
}

func TestValidJSONAllocationFree(t *testing.T) {
	art := deadlineArtifact(t, "paper")
	if allocs := testing.AllocsPerRun(20, func() {
		if !engine.ValidJSON(art) {
			t.Fatal("ValidJSON rejects the deadline artifact")
		}
	}); allocs != 0 {
		t.Errorf("ValidJSON made %v allocations on a %d-byte artifact, want 0", allocs, len(art))
	}
}

// rowBodies are the element lists the row tests put between brackets:
// rows of 1-, 2-, 3-, 9- and 13-digit numbers and of mixed widths with
// lone zeros, each long enough for the row loop to check several words,
// and rows of exactly 3, 4 and 5 elements, around the point where
// scanArray starts the row loop. The row loop's words start at an
// element's first byte, so each long row also comes with its fifth
// element widened by 1-3 digits, which moves the commas of the rest of
// the row to other byte positions of a word: with the four widths, to
// every one of them in each row.
func rowBodies() []string {
	var bodies []string
	for _, elems := range [][]string{
		{"7"}, {"42"}, {"305"}, {"123456789"}, {"1000000000007"},
		{"0", "7", "42", "0", "305", "123456789", "0", "10", "100", "0"},
	} {
		var row []string
		for k := 0; len(strings.Join(row, ",")) < 120; k++ {
			row = append(row, elems[k%len(elems)])
		}
		for wide := range 4 {
			row := slices.Clone(row)
			row[4] += strings.Repeat("1", wide)
			bodies = append(bodies, strings.Join(row, ","))
		}
		for n := 3; n <= 5; n++ {
			bodies = append(bodies, strings.Join(row[:n], ","))
		}
	}
	return bodies
}

// rowDocs puts a row body in an array on its own and in an array nested
// in an object, where the row loop's last words run past the ].
func rowDocs(body string) [2]string {
	return [2]string{"[" + body + "]", `{"p":[[` + body + `],[1]],"v":0}`}
}

// TestValidJSONRowAlignment: on long integer rows, every insertion and
// substitution of a byte or pair the row loop must refuse or hand back,
// at every offset from the row's first element, and every position of
// the row's ], gets json.Valid's answer.
func TestValidJSONRowAlignment(t *testing.T) {
	check := func(doc string) bool {
		t.Helper()
		got, want := engine.ValidJSON([]byte(doc)), json.Valid([]byte(doc))
		if got != want {
			t.Fatalf("ValidJSON(%q) = %v, json.Valid = %v", doc, got, want)
		}
		return want
	}
	// A comma inserted next to a comma makes ,, and at offset 0 [,; a
	// 0 inserted before a digit makes a leading zero.
	muts := []string{
		",", ",,", "0", "05", "00",
		"-", ".", "e", "/", ":", "+",
		" ", "\t", "\n", ", ", ",\t", ",\n",
		"]", "[", "\xac",
	}
	for c := byte(0xb0); c <= 0xb9; c++ {
		muts = append(muts, string([]byte{c}))
	}
	var valid, invalid int
	for _, body := range rowBodies() {
		for _, doc := range rowDocs(body) {
			if !check(doc) {
				t.Fatalf("%q is not valid JSON", doc)
			}
		}
		for k := 0; k <= len(body); k++ {
			// The row cut short at k, which puts its ] at every offset
			// and gives ,] after each comma.
			for _, doc := range rowDocs(body[:k]) {
				check(doc)
			}
			for _, m := range muts {
				edits := []string{body[:k] + m + body[k:]}
				if k < len(body) {
					edits = append(edits, body[:k]+m+body[min(k+len(m), len(body)):])
				}
				for _, e := range edits {
					for _, doc := range rowDocs(e) {
						if check(doc) {
							valid++
						} else {
							invalid++
						}
					}
				}
			}
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("%d mutated rows valid, %d invalid; want some of each", valid, invalid)
	}
}

func FuzzValidJSON(f *testing.F) {
	f.Add(deadlineArtifact(f, "small"))
	for _, c := range validCases(false) {
		f.Add(c)
	}
	// Mixed-width rows long enough for the row loop, so the fuzzer
	// mutates inside its words.
	f.Add([]byte("[0,10,100,0,7,42,305,0,123456789,0,5,10,100,1000,0,7,42]"))
	f.Add([]byte(`{"price":[[0,50,50,50,50,50,50,50,50,50,50,50,50,50,50],[0,10,100,0,7,42,305,0,9,0,1]],"value":1.5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := engine.ValidJSON(data), json.Valid(data); got != want {
			t.Fatalf("ValidJSON(%q) = %v, json.Valid = %v", data, got, want)
		}
	})
}

// artifactSpec solves to the bytes it holds.
type artifactSpec struct {
	id       string
	artifact []byte
}

func (s *artifactSpec) Kind() string                          { return "edge" }
func (s *artifactSpec) Validate() error                       { return nil }
func (s *artifactSpec) Fingerprint() (string, error)          { return "edge/test:" + s.id, nil }
func (s *artifactSpec) Solve(context.Context) ([]byte, error) { return s.artifact, nil }

// TestEngineChecksEdgeCaseArtifacts: the engine caches an artifact exactly
// when json.Valid accepts it, and fails every other one with the error
// naming its kind.
func TestEngineChecksEdgeCaseArtifacts(t *testing.T) {
	cases := validCases(true)
	e := engine.New(engine.Options{Workers: 1, CacheSize: len(cases)})
	t.Cleanup(e.Close)
	var valid int64
	for i, c := range cases {
		spec := &artifactSpec{id: fmt.Sprint(i), artifact: c}
		res, err := e.Solve(context.Background(), spec)
		if !json.Valid(c) {
			if err == nil || !strings.Contains(err.Error(), "edge") || !strings.Contains(err.Error(), "not a JSON document") {
				t.Errorf("artifact %.40q: err = %v, want a not-JSON error naming the kind", c, err)
			}
			continue
		}
		valid++
		if err != nil {
			t.Errorf("artifact %.40q: %v", c, err)
			continue
		}
		if !bytes.Equal(res.Value, c) {
			t.Errorf("artifact %.40q served as %.40q", c, res.Value)
		}
		if res, err := e.Solve(context.Background(), spec); err != nil || !res.CacheHit {
			t.Errorf("artifact %.40q was not cached: err = %v", c, err)
		}
	}
	if m := e.Metrics(); m.CacheEntries != valid || m.Solves != int64(len(cases)) {
		t.Errorf("cache entries = %d, solves = %d, want %d and %d", m.CacheEntries, m.Solves, valid, len(cases))
	}
}

func BenchmarkValidJSON(b *testing.B) {
	benchmarkValid(b, engine.ValidJSON)
}

// BenchmarkJSONValid is BenchmarkValidJSON with encoding/json's check.
func BenchmarkJSONValid(b *testing.B) {
	benchmarkValid(b, json.Valid)
}

// benchmarkValid times valid on the paper-scale artifact of each built-in
// kind, one sub-benchmark a kind.
func benchmarkValid(b *testing.B, valid func([]byte) bool) {
	for _, kind := range []string{kinds.KindDeadline, kinds.KindTradeoff, kinds.KindMulti, kinds.KindBudget} {
		b.Run(kind, func(b *testing.B) {
			art := kindArtifact(b, kind, "paper")
			b.SetBytes(int64(len(art)))
			for b.Loop() {
				if !valid(art) {
					b.Fatalf("the %s artifact is not valid", kind)
				}
			}
		})
	}
}
