package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
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

// appendPrices appends rows as encoding/json writes a [][]int. A price
// below 100, as every price of the paper's range is, is written as its one
// or two digits directly; any other goes through strconv.
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
			switch {
			case uint(c) < 10:
				b = append(b, byte('0'+c))
			case uint(c) < 100:
				b = append(b, byte('0'+c/10), byte('0'+c%10))
			default:
				b = strconv.AppendInt(b, int64(c), 10)
			}
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
// takes a third of the time strconv.AppendInt takes to write them, and a
// value below 100 is counted without the loop.
func intLen(v int) int {
	switch {
	case uint(v) < 10:
		return 1
	case uint(v) < 100:
		return 2
	}
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
//
// The encoding is one byte slice, hashed once by sum. Each method returns
// it with one more field appended, as append does, so a Fingerprint that
// starts it in an array of its own keeps it on the stack: it allocates for
// the digest's string, and for an encoding past the array's length.
type fpHasher []byte

// fpBufLen is the array a Fingerprint starts its encoding in: a deadline
// problem of up to ~110 intervals fits.
const fpBufLen = 1024

// newFPHasher starts an encoding in buf, in the given domain; the domain
// tag separates the problem kinds (and versions the encoding), so a
// deadline problem and a budget problem can never collide even if their
// field bytes coincide.
func newFPHasher(buf []byte, domain string) fpHasher {
	return fpHasher(buf[:0]).str(domain)
}

func (f fpHasher) str(s string) fpHasher {
	return append(f.int(len(s)), s...)
}

func (f fpHasher) int(v int) fpHasher {
	return binary.BigEndian.AppendUint64(f, uint64(int64(v)))
}

func (f fpHasher) float(v float64) fpHasher {
	return binary.BigEndian.AppendUint64(f, math.Float64bits(v))
}

// floats appends a length-prefixed run of floats, growing the encoding at
// most once for it.
func (f fpHasher) floats(vs []float64) fpHasher {
	f = slices.Grow(f.int(len(vs)), 8*len(vs))
	for _, v := range vs {
		f = f.float(v)
	}
	return f
}

// curve appends a logistic acceptance curve.
func (f fpHasher) curve(l choice.Logistic) fpHasher {
	return f.str("logistic").float(l.S).float(l.B).float(l.M)
}

func (f fpHasher) sum() string {
	d := sha256.Sum256(f)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], d[:])
	return string(dst[:])
}

// fingerprintAccept returns the curve an acceptance function contributes to
// a fingerprint. Like policy serialization, fingerprinting requires the
// parametric choice.Logistic curve; an arbitrary AcceptanceFn has no
// canonical content to hash.
func fingerprintAccept(fn choice.AcceptanceFn) (choice.Logistic, error) {
	l, ok := fn.(choice.Logistic)
	if !ok {
		return l, fmt.Errorf("core: acceptance curve %T is not fingerprintable", fn)
	}
	return l, nil
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
	l, err := fingerprintAccept(p.Accept)
	if err != nil {
		return "", err
	}
	var buf [fpBufLen]byte
	return newFPHasher(buf[:], "crowdpricing/deadline/v1").
		int(p.N).float(p.Horizon).int(p.Intervals).floats(p.Lambdas).
		curve(l).int(p.MinPrice).int(p.MaxPrice).
		float(p.Penalty).float(p.Alpha).float(p.TruncEps).sum(), nil
}

// Fingerprint returns a stable content hash of the budget problem; see
// DeadlineProblem.Fingerprint for the contract.
func (p *BudgetProblem) Fingerprint() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	l, err := fingerprintAccept(p.Accept)
	if err != nil {
		return "", err
	}
	var buf [fpBufLen]byte
	return newFPHasher(buf[:], "crowdpricing/budget/v1").
		int(p.N).int(p.Budget).
		curve(l).int(p.MinPrice).int(p.MaxPrice).sum(), nil
}

// Fingerprint returns a stable content hash of the general-k multi-type
// problem; see DeadlineProblem.Fingerprint for the contract. Every
// acceptance curve participates in type order, so reordering the types is a
// different problem (as it must be: the price vector is positional).
func (p *MultiProblem) Fingerprint() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	var buf [fpBufLen]byte
	f := newFPHasher(buf[:], "crowdpricing/multi/v1").int(len(p.Counts))
	for _, n := range p.Counts {
		f = f.int(n)
	}
	f = f.int(p.Intervals).floats(p.Lambdas)
	for _, fn := range p.Accepts {
		l, err := fingerprintAccept(fn)
		if err != nil {
			return "", err
		}
		f = f.curve(l)
	}
	return f.int(p.MinPrice).int(p.MaxPrice).float(p.Penalty).float(p.TruncEps).sum(), nil
}

// Fingerprint returns a stable content hash of the trade-off problem; see
// DeadlineProblem.Fingerprint for the contract.
func (p *TradeoffProblem) Fingerprint() (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	l, err := fingerprintAccept(p.Accept)
	if err != nil {
		return "", err
	}
	var buf [fpBufLen]byte
	return newFPHasher(buf[:], "crowdpricing/tradeoff/v1").
		int(p.N).float(p.Alpha).float(p.Lambda).
		curve(l).int(p.MinPrice).int(p.MaxPrice).sum(), nil
}
