package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"crowdpricing/internal/choice"
)

func TestPolicyJSONRoundTrip(t *testing.T) {
	p := testProblem(25, 9)
	for _, solver := range []struct {
		name  string
		solve func() (*DeadlinePolicy, error)
	}{{"simple", p.SolveSimple}, {"efficient", p.SolveEfficient}} {
		name := solver.name
		pol, err := solver.solve()
		if err != nil {
			t.Fatal(err)
		}
		if pol.Value != pol.Opt[0][p.N] {
			t.Fatalf("%s: Value %v, want Opt[0][N] = %v", name, pol.Value, pol.Opt[0][p.N])
		}
		data, err := json.Marshal(pol)
		if err != nil {
			t.Fatal(err)
		}
		var back DeadlinePolicy
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		// Identical prices and value; the cost-to-go table stays behind.
		for tt := 0; tt < p.Intervals; tt++ {
			for n := 0; n <= p.N; n++ {
				if back.Price[tt][n] != pol.Price[tt][n] {
					t.Fatalf("%s: price changed at (%d,%d)", name, n, tt)
				}
			}
		}
		if back.Value != pol.Value {
			t.Errorf("%s: value changed: %v vs %v", name, back.Value, pol.Value)
		}
		if back.Opt != nil {
			t.Errorf("%s: decoded policy has an Opt table", name)
		}
		// The restored policy evaluates identically (the kernel rebuilds from
		// the restored problem).
		a, b := pol.Evaluate(), back.Evaluate()
		if math.Abs(a.ExpectedCost-b.ExpectedCost) > 1e-9 {
			t.Errorf("%s: evaluation changed: %v vs %v", name, a.ExpectedCost, b.ExpectedCost)
		}
	}
}

// policyJSONCases returns the JSON of a small solved policy and copies of
// it with one field broken in each, every one of which UnmarshalJSON must
// reject.
func policyJSONCases(tb testing.TB) (valid []byte, corrupted [][]byte) {
	p := testProblem(10, 4)
	pol, err := p.SolveEfficient()
	if err != nil {
		tb.Fatal(err)
	}
	valid, err = json.Marshal(pol)
	if err != nil {
		tb.Fatal(err)
	}
	shortRow := slices.Clone(pol.Price)
	shortRow[1] = shortRow[1][:p.N]
	cases := []func(*map[string]any){
		func(m *map[string]any) { (*m)["intervals"] = 3 },                 // wrong table rows
		func(m *map[string]any) { (*m)["n"] = 0 },                         // invalid problem
		func(m *map[string]any) { (*m)["price"] = [][]int{{999}} },        // out-of-range price
		func(m *map[string]any) { (*m)["price"] = shortRow },              // price row of the wrong length
		func(m *map[string]any) { (*m)["lambdas"] = []float64{1, 2, -3} }, // bad lambda
	}
	for _, corrupt := range cases {
		var m map[string]any
		if err := json.Unmarshal(valid, &m); err != nil {
			tb.Fatal(err)
		}
		corrupt(&m)
		bad, err := json.Marshal(m)
		if err != nil {
			tb.Fatal(err)
		}
		corrupted = append(corrupted, bad)
	}
	return valid, corrupted
}

func TestPolicyJSONRejectsCorrupted(t *testing.T) {
	_, corrupted := policyJSONCases(t)
	for i, bad := range corrupted {
		var back DeadlinePolicy
		if err := json.Unmarshal(bad, &back); err == nil {
			t.Errorf("corruption %d accepted", i)
		}
	}
}

// optFormatPolicy is a policy file written before the wire form dropped
// the cost-to-go table: testProblem(12, 6) solved and marshalled with its
// "opt" rows and no "value".
const optFormatPolicy = "testdata/policy_with_opt.json"

// TestPolicyJSONLoadsOptFormat pins loading of files written in the older
// form: the prices are the solver's, the ignored opt leaves Opt nil and
// Value 0, and re-marshalling writes no opt key.
func TestPolicyJSONLoadsOptFormat(t *testing.T) {
	data, err := os.ReadFile(optFormatPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"opt":`)) {
		t.Fatalf("%s has no opt field", optFormatPolicy)
	}
	var pol DeadlinePolicy
	if err := json.Unmarshal(data, &pol); err != nil {
		t.Fatal(err)
	}
	if pol.Opt != nil || pol.Value != 0 {
		t.Errorf("loaded Opt = %v, Value = %v; want nil and 0", pol.Opt, pol.Value)
	}
	fresh, err := pol.Problem.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	for tt, row := range fresh.Price {
		for n, c := range row {
			if pol.Price[tt][n] != c {
				t.Fatalf("price at (%d,%d) = %d, a fresh solve gives %d", n, tt, pol.Price[tt][n], c)
			}
		}
	}
	out, err := json.Marshal(&pol)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(out, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["opt"]; ok {
		t.Error("re-marshalled policy still has an opt key")
	}
}

// FuzzDeadlinePolicyJSON feeds arbitrary bytes to the policy decoder, the
// boundary every stored or served deadline artifact crosses on its way
// back in. No input may panic. An accepted input re-marshals to bytes that
// decode to the same problem, prices and value, and marshalling that
// policy again gives the same bytes.
func FuzzDeadlinePolicyJSON(f *testing.F) {
	valid, corrupted := policyJSONCases(f)
	f.Add(valid)
	fixture, err := os.ReadFile(optFormatPolicy)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, bad := range corrupted {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var first DeadlinePolicy
		if err := first.UnmarshalJSON(b); err != nil {
			return
		}
		out, err := first.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted policy does not marshal: %v", err)
		}
		var second DeadlinePolicy
		if err := second.UnmarshalJSON(out); err != nil {
			t.Fatalf("re-marshalled policy rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(second.Problem, first.Problem) || !reflect.DeepEqual(second.Price, first.Price) ||
			second.Value != first.Value {
			t.Fatalf("round trip changed the policy:\n in %s\nout %s", b, out)
		}
		again, err := second.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("marshal is not stable:\n first %s\nsecond %s", out, again)
		}
	})
}

// encodePolicyJSON is MarshalJSON's oracle: the policy's wire struct
// through encoding/json.
func encodePolicyJSON(pol *DeadlinePolicy) ([]byte, error) {
	h, err := pol.head()
	if err != nil {
		return nil, err
	}
	return json.Marshal(policyJSON{policyHead: h, Price: pol.Price, Value: pol.Value})
}

// FuzzMarshalJSON compares MarshalJSON with encoding/json on arbitrary
// price rows (nil rows, nil tables and any int included) and arbitrary
// floats. Both must write the same bytes, MarshalJSON in a slice of exactly
// their length, or fail with the same error, as they must on NaN and ±Inf.
func FuzzMarshalJSON(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(0), 123.5, 1733.0, 15.0, 1e-6)
	f.Add(uint8(0), uint8(0), []byte(nil), uint8(1), 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(2), math.NaN(), 1.0, 2.0, 3.0)
	f.Add(uint8(1), uint8(2), []byte{7}, uint8(0), 1.0, math.Inf(1), 2.0, 3.0)
	f.Fuzz(func(t *testing.T, rows, cols uint8, cells []byte, nils uint8, value, lambda, s, eps float64) {
		var price [][]int
		if nils&1 == 0 {
			price = make([][]int, rows%8)
		}
		i := 0
		for r := range price {
			if nils&2 != 0 && r%2 == 1 {
				continue // a nil row
			}
			price[r] = make([]int, cols%16)
			for n := range price[r] {
				var b [8]byte
				for k := range b {
					if len(cells) > 0 {
						b[k] = cells[i%len(cells)]
						i++
					}
				}
				price[r][n] = int(int64(binary.LittleEndian.Uint64(b[:])))
			}
		}
		pol := &DeadlinePolicy{
			Problem: &DeadlineProblem{
				N: int(cols), Horizon: lambda / 3, Intervals: int(rows),
				Lambdas: []float64{lambda, eps}, Accept: choice.Logistic{S: s, B: -0.39, M: 2000},
				MinPrice: int(nils), MaxPrice: 50, Penalty: value / 2, Alpha: s, TruncEps: eps,
			},
			Price: price,
			Value: value,
		}
		got, gotErr := pol.MarshalJSON()
		want, wantErr := encodePolicyJSON(pol)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("MarshalJSON error %v, encoding/json error %v", gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON differs from encoding/json:\n got %s\nwant %s", got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("artifact of %d bytes has capacity %d", len(got), cap(got))
		}
	})
}

// TestAppendPricesSmallIntegers: the one- and two-digit paths of
// appendPrices and intLen write and count what strconv does, around their
// edges and at the extremes.
func TestAppendPricesSmallIntegers(t *testing.T) {
	vals := []int{math.MinInt, math.MinInt + 1, -1 << 32, math.MaxInt, 1 << 40}
	for v := -1001; v <= 1001; v++ {
		vals = append(vals, v)
	}
	for _, v := range vals {
		want := strconv.Itoa(v)
		if got := string(appendPrices(nil, [][]int{{v, v}})); got != "[["+want+","+want+"]]" {
			t.Fatalf("appendPrices(%d) = %s", v, got)
		}
		if got := intLen(v); got != len(want) {
			t.Fatalf("intLen(%d) = %d, want %d", v, got, len(want))
		}
	}
}

type opaqueAccept struct{}

func (opaqueAccept) Accept(int) float64 { return 0.5 }

func TestPolicyJSONRejectsOpaqueAcceptance(t *testing.T) {
	p := testProblem(5, 3)
	p.Accept = opaqueAccept{}
	pol, err := p.SolveEfficient()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(pol); err == nil {
		t.Error("want error for non-serializable acceptance function")
	}
}
