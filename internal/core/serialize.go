package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"strconv"

	"crowdpricing/internal/choice"
)

// policyJSON is the wire form of a solved deadline policy: the problem, the
// price table and the policy's value. The cost-to-go table stays out; it is
// the solver's working state and ~6× the bytes of the prices. Only the
// parametric Logistic acceptance curve serializes; policies built over
// custom AcceptanceFn implementations must be re-solved on load.
type policyJSON struct {
	policyHead
	Price [][]int `json:"price"`
	Value float64 `json:"value"`
}

// policyHead is the wire form's fields ahead of the price table.
type policyHead struct {
	N         int        `json:"n"`
	Horizon   float64    `json:"horizon_hours"`
	Intervals int        `json:"intervals"`
	Lambdas   []float64  `json:"lambdas"`
	Accept    acceptJSON `json:"accept"`
	MinPrice  int        `json:"min_price"`
	MaxPrice  int        `json:"max_price"`
	Penalty   float64    `json:"penalty"`
	Alpha     float64    `json:"alpha"`
	TruncEps  float64    `json:"trunc_eps"`
}

type acceptJSON struct {
	S float64 `json:"s"`
	B float64 `json:"b"`
	M float64 `json:"m"`
}

// head returns the policy's wire head. It fails if the policy has no
// problem or its acceptance curve is not a choice.Logistic.
func (pol *DeadlinePolicy) head() (policyHead, error) {
	p := pol.Problem
	if p == nil {
		return policyHead{}, errors.New("core: policy has no problem")
	}
	l, ok := p.Accept.(choice.Logistic)
	if !ok {
		return policyHead{}, fmt.Errorf("core: acceptance curve %T is not serializable", p.Accept)
	}
	return policyHead{
		N:         p.N,
		Horizon:   p.Horizon,
		Intervals: p.Intervals,
		Lambdas:   p.Lambdas,
		Accept:    acceptJSON{S: l.S, B: l.B, M: l.M},
		MinPrice:  p.MinPrice,
		MaxPrice:  p.MaxPrice,
		Penalty:   p.Penalty,
		Alpha:     p.Alpha,
		TruncEps:  p.TruncEps,
	}, nil
}

// MarshalJSON serializes the policy's problem parameters, price table and
// value, so a solved plan can be stored and reloaded without re-running
// the DP. Opt is not written. It fails if the acceptance curve is not a
// choice.Logistic, or, as encoding/json does, on a NaN or infinite float.
//
// The bytes are json.Marshal(policyJSON)'s: encoding/json writes the head
// fields and the value, and the price rows, nearly all of the artifact, are
// appended as integers directly instead of through reflection. The result
// is one slice of exactly the artifact's length, since a cache that keeps
// the slice keeps its capacity too.
func (pol *DeadlinePolicy) MarshalJSON() ([]byte, error) {
	h, err := pol.head()
	if err != nil {
		return nil, err
	}
	head, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	value, err := json.Marshal(pol.Value)
	if err != nil {
		return nil, err
	}
	const priceKey, valueKey = `,"price":`, `,"value":`
	head = head[:len(head)-1] // reopen the object: drop its closing brace
	out := make([]byte, 0, len(head)+len(priceKey)+pricesLen(pol.Price)+len(valueKey)+len(value)+1)
	out = append(out, head...)
	out = append(out, priceKey...)
	out = appendPrices(out, pol.Price)
	out = append(out, valueKey...)
	out = append(out, value...)
	return append(out, '}'), nil
}

// appendPrices appends rows as encoding/json writes a [][]int.
func appendPrices(b []byte, rows [][]int) []byte {
	if rows == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for t, row := range rows {
		if t > 0 {
			b = append(b, ',')
		}
		if row == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for n, c := range row {
			if n > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// pricesLen is the length of appendPrices' output.
func pricesLen(rows [][]int) int {
	if rows == nil {
		return len("null")
	}
	size := 2 + max(len(rows)-1, 0)
	for _, row := range rows {
		if row == nil {
			size += len("null")
			continue
		}
		size += 2 + max(len(row)-1, 0)
		for _, c := range row {
			size += intLen(c)
		}
	}
	return size
}

// intLen is the length of v in decimal, sign included. Counting digits
// takes a third of the time strconv.AppendInt takes to write them.
func intLen(v int) int {
	n := 1
	u := uint64(v)
	if v < 0 {
		n++
		u = -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// UnmarshalJSON restores a policy serialized by MarshalJSON, validating the
// problem and the price table's dimensions and range. The restored policy
// has a nil Opt. A file written before the wire form dropped the cost-to-go
// table still loads: its "opt" field is ignored and its Value reads 0.
func (pol *DeadlinePolicy) UnmarshalJSON(data []byte) error {
	var pj policyJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return err
	}
	p := &DeadlineProblem{
		N:         pj.N,
		Horizon:   pj.Horizon,
		Intervals: pj.Intervals,
		Lambdas:   pj.Lambdas,
		Accept:    choice.Logistic{S: pj.Accept.S, B: pj.Accept.B, M: pj.Accept.M},
		MinPrice:  pj.MinPrice,
		MaxPrice:  pj.MaxPrice,
		Penalty:   pj.Penalty,
		Alpha:     pj.Alpha,
		TruncEps:  pj.TruncEps,
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: stored policy problem invalid: %w", err)
	}
	if len(pj.Price) != p.Intervals {
		return fmt.Errorf("core: stored price table has %d rows, want %d", len(pj.Price), p.Intervals)
	}
	for t, row := range pj.Price {
		if len(row) != p.N+1 {
			return fmt.Errorf("core: price row %d has %d entries, want %d", t, len(row), p.N+1)
		}
		for n, c := range row {
			if c < p.MinPrice || c > p.MaxPrice {
				return fmt.Errorf("core: stored price %d at (%d,%d) outside [%d,%d]",
					c, n, t, p.MinPrice, p.MaxPrice)
			}
		}
	}
	*pol = DeadlinePolicy{Problem: p, Price: pj.Price, Value: pj.Value}
	return nil
}

// fpHasher accumulates the canonical binary encoding behind problem
// fingerprints. Every field is written in a fixed order with an explicit
// width (int64 big-endian for integers, IEEE-754 bits for floats, length-
// prefixed bytes for strings), so the resulting digest depends only on the
// problem's content — never on map iteration order, struct layout, platform
// word size, or JSON formatting.
type fpHasher struct {
	h hash.Hash
}

// newFPHasher starts a hash in the given domain; the domain tag separates
// the problem kinds (and versions the encoding), so a deadline problem and a
// budget problem can never collide even if their field bytes coincide.
func newFPHasher(domain string) *fpHasher {
	f := &fpHasher{h: sha256.New()}
	f.str(domain)
	return f
}

func (f *fpHasher) str(s string) {
	f.int(len(s))
	io.WriteString(f.h, s)
}

func (f *fpHasher) int(v int) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(int64(v)))
	f.h.Write(b[:])
}

func (f *fpHasher) float(v float64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	f.h.Write(b[:])
}

func (f *fpHasher) floats(vs []float64) {
	f.int(len(vs))
	for _, v := range vs {
		f.float(v)
	}
}

func (f *fpHasher) sum() string { return hex.EncodeToString(f.h.Sum(nil)) }

// fingerprintAccept folds the acceptance curve into the hash. Like policy
// serialization, fingerprinting requires the parametric choice.Logistic
// curve; an arbitrary AcceptanceFn has no canonical content to hash.
func fingerprintAccept(f *fpHasher, fn choice.AcceptanceFn) error {
	l, ok := fn.(choice.Logistic)
	if !ok {
		return fmt.Errorf("core: acceptance curve %T is not fingerprintable", fn)
	}
	f.str("logistic")
	f.float(l.S)
	f.float(l.B)
	f.float(l.M)
	return nil
}

// Fingerprint returns a stable content hash of the problem: two problems
// have equal fingerprints iff every parameter that influences the solved
// policy is equal. The solvers are exact and serial, so equal problems
// solve to bit-identical policies, and a shared cache keyed by Fingerprint
// serves every caller the artifact it would have solved itself.
// The problem must validate; fingerprinting an invalid problem is an error
// so malformed requests can never occupy cache slots.
func (p *DeadlineProblem) Fingerprint() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	f := newFPHasher("crowdpricing/deadline/v1")
	f.int(p.N)
	f.float(p.Horizon)
	f.int(p.Intervals)
	f.floats(p.Lambdas)
	if err := fingerprintAccept(f, p.Accept); err != nil {
		return "", err
	}
	f.int(p.MinPrice)
	f.int(p.MaxPrice)
	f.float(p.Penalty)
	f.float(p.Alpha)
	f.float(p.TruncEps)
	return f.sum(), nil
}

// Fingerprint returns a stable content hash of the budget problem; see
// DeadlineProblem.Fingerprint for the contract.
func (p *BudgetProblem) Fingerprint() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	f := newFPHasher("crowdpricing/budget/v1")
	f.int(p.N)
	f.int(p.Budget)
	if err := fingerprintAccept(f, p.Accept); err != nil {
		return "", err
	}
	f.int(p.MinPrice)
	f.int(p.MaxPrice)
	return f.sum(), nil
}

// Fingerprint returns a stable content hash of the general-k multi-type
// problem; see DeadlineProblem.Fingerprint for the contract. Every
// acceptance curve participates in type order, so reordering the types is a
// different problem (as it must be: the price vector is positional).
func (p *MultiProblem) Fingerprint() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	f := newFPHasher("crowdpricing/multi/v1")
	f.int(len(p.Counts))
	for _, n := range p.Counts {
		f.int(n)
	}
	f.int(p.Intervals)
	f.floats(p.Lambdas)
	for _, fn := range p.Accepts {
		if err := fingerprintAccept(f, fn); err != nil {
			return "", err
		}
	}
	f.int(p.MinPrice)
	f.int(p.MaxPrice)
	f.float(p.Penalty)
	f.float(p.TruncEps)
	return f.sum(), nil
}

// Fingerprint returns a stable content hash of the trade-off problem; see
// DeadlineProblem.Fingerprint for the contract.
func (p *TradeoffProblem) Fingerprint() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	f := newFPHasher("crowdpricing/tradeoff/v1")
	f.int(p.N)
	f.float(p.Alpha)
	f.float(p.Lambda)
	if err := fingerprintAccept(f, p.Accept); err != nil {
		return "", err
	}
	f.int(p.MinPrice)
	f.int(p.MaxPrice)
	return f.sum(), nil
}
