package engine

import (
	"fmt"
	"testing"
)

// probe is a decode target whose reader records that it ran and, when
// take is set, fills A with 99, a value no body below holds.
type probe struct {
	A    int `json:"a"`
	take bool
	read bool
}

func (p *probe) ReadJSON([]byte) bool {
	p.read = true
	if p.take {
		p.A = 99
	}
	return p.take
}

// TestDecodeJSONPaths checks which path DecodeJSON takes: the reader only
// on a body ValidJSON accepts, and the strict decoder on every other body
// and on every body the reader refuses, with its error text.
func TestDecodeJSONPaths(t *testing.T) {
	for _, c := range []struct {
		body    string
		take    bool
		read    bool // whether the reader must be called
		wantA   int
		wantErr string
	}{
		{`{"a":1}`, true, true, 99, "<nil>"},
		{` {"a":1} `, false, true, 1, "<nil>"},
		{`{"a":1} {"a":2}`, true, false, 1, "<nil>"},
		{`{"a":1`, true, false, 0, "unexpected EOF"},
		{`{"b":1}`, false, true, 0, `json: unknown field "b"`},
		{`[1]`, false, true, 0, "json: cannot unmarshal array into Go value of type engine.probe"},
		{``, true, false, 0, "EOF"},
	} {
		p := probe{take: c.take}
		err := DecodeJSON([]byte(c.body), &p)
		if p.read != c.read || p.A != c.wantA || fmt.Sprint(err) != c.wantErr {
			t.Errorf("body %q: reader called %v, a=%d, error %v; want %v, %d, %s", c.body, p.read, p.A, err, c.read, c.wantA, c.wantErr)
		}
	}
	var m map[string]int
	if err := DecodeJSON([]byte(`{"x":1}`), &m); err != nil || m["x"] != 1 {
		t.Errorf("a value with no reader decoded to %v, %v", m, err)
	}
}
