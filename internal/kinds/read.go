package kinds

import (
	"bytes"
	"strconv"
)

// ReadJSON implements engine.JSONReader for the layout json.Marshal writes:
// one object holding the request's own keys, spelled as its tags spell
// them, each at most once and in any order, with whitespace anywhere
// between tokens. The int fields take integers that fit an int, read by
// strconv.ParseInt at int size; the float fields take numbers, read by
// strconv.ParseFloat; lambdas is an array of numbers ([] gives an empty,
// non-nil slice, as encoding/json does), and accept an object holding s,
// b and m, each at most once. A key left out keeps its value, as with
// encoding/json. Anything else, a null, a key in another case or with an
// escape, a repeated or unknown key, or a number out of range among them,
// makes it report false and leave r as it was, so engine.DecodeJSON hands
// the body to encoding/json and its error text. body must be one JSON
// document (engine.ValidJSON), which is what lets the reader skip
// checking the grammar.
func (r *DeadlineRequest) ReadJSON(body []byte) bool {
	t := *r
	var seen uint
	c := cursor{b: body}
	ok := c.object(func(key []byte) bool {
		var bit uint
		ok := false
		switch string(key) {
		case "n":
			bit, ok = 1<<0, c.int(&t.N)
		case "horizon_hours":
			bit, ok = 1<<1, c.float(&t.HorizonHours)
		case "intervals":
			bit, ok = 1<<2, c.int(&t.Intervals)
		case "lambdas":
			bit, ok = 1<<3, c.floats(&t.Lambdas)
		case "accept":
			bit, ok = 1<<4, c.logistic(&t.Accept)
		case "min_price":
			bit, ok = 1<<5, c.int(&t.MinPrice)
		case "max_price":
			bit, ok = 1<<6, c.int(&t.MaxPrice)
		case "penalty":
			bit, ok = 1<<7, c.float(&t.Penalty)
		case "alpha":
			bit, ok = 1<<8, c.float(&t.Alpha)
		case "trunc_eps":
			bit, ok = 1<<9, c.float(&t.TruncEps)
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return ok
	})
	if !ok || !c.end() {
		return false
	}
	*r = t
	return true
}

// cursor walks a JSON document token by token for the ReadJSON methods.
// Each method skips the whitespace before its token, reads it, and
// reports false on a token of another kind.
type cursor struct {
	b []byte
	i int
}

// skip moves past JSON whitespace.
func (c *cursor) skip() {
	for c.i < len(c.b) && (c.b[c.i] == ' ' || c.b[c.i] == '\n' || c.b[c.i] == '\r' || c.b[c.i] == '\t') {
		c.i++
	}
}

// token consumes the byte ch.
func (c *cursor) token(ch byte) bool {
	c.skip()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// end reports whether nothing but whitespace is left.
func (c *cursor) end() bool {
	c.skip()
	return c.i == len(c.b)
}

// object reads an object, calling member with each key, the bytes between
// its quotes, once the cursor has passed the colon after it. member reads
// the value and reports whether it did. A key holding an escape keeps its
// backslash, so it spells no field name.
func (c *cursor) object(member func(key []byte) bool) bool {
	if !c.token('{') {
		return false
	}
	if c.token('}') {
		return true
	}
	for {
		if !c.token('"') {
			return false
		}
		n := bytes.IndexByte(c.b[c.i:], '"')
		if n < 0 {
			return false
		}
		key := c.b[c.i : c.i+n]
		c.i += n + 1
		if !c.token(':') || !member(key) {
			return false
		}
		if c.token('}') {
			return true
		}
		if !c.token(',') {
			return false
		}
	}
}

// number returns the number token at the cursor: the run of bytes a JSON
// number can hold, empty when a value of another kind starts there.
func (c *cursor) number() []byte {
	c.skip()
	j := c.i
	for j < len(c.b) && (c.b[j] >= '0' && c.b[j] <= '9' || c.b[j] == '-' || c.b[j] == '.' || c.b[j] == 'e' || c.b[j] == 'E' || c.b[j] == '+') {
		j++
	}
	tok := c.b[c.i:j]
	c.i = j
	return tok
}

// int reads an integer that fits an int, as encoding/json takes one into
// an int field.
func (c *cursor) int(v *int) bool {
	n, err := strconv.ParseInt(string(c.number()), 10, 0)
	*v = int(n)
	return err == nil
}

// float reads a number into a float64, as encoding/json does.
func (c *cursor) float(v *float64) bool {
	f, err := strconv.ParseFloat(string(c.number()), 64)
	*v = f
	return err == nil
}

// floats reads an array of numbers into a new slice sized by the commas
// before the first ']'.
func (c *cursor) floats(v *[]float64) bool {
	if !c.token('[') {
		return false
	}
	n := bytes.IndexByte(c.b[c.i:], ']')
	if n < 0 {
		return false
	}
	out := make([]float64, 0, bytes.Count(c.b[c.i:c.i+n], []byte{','})+1)
	if !c.token(']') {
		for {
			var f float64
			if !c.float(&f) {
				return false
			}
			out = append(out, f)
			if c.token(']') {
				break
			}
			if !c.token(',') {
				return false
			}
		}
	}
	*v = out
	return true
}

// logistic reads an acceptance curve's object into v.
func (c *cursor) logistic(v *LogisticParams) bool {
	var seen uint
	return c.object(func(key []byte) bool {
		var bit uint
		ok := false
		switch string(key) {
		case "s":
			bit, ok = 1<<0, c.float(&v.S)
		case "b":
			bit, ok = 1<<1, c.float(&v.B)
		case "m":
			bit, ok = 1<<2, c.float(&v.M)
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return ok
	})
}
