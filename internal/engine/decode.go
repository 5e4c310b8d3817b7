package engine

import (
	"bytes"
	"encoding/json"
	"io"
)

// JSONReader is implemented by a value that can fill itself from a request
// body without reflection. DecodeJSON calls ReadJSON only on a body that
// ValidJSON accepts, so a reader may rely on the body being one well-formed
// document, and it must not keep body, which the caller may reuse.
//
// ReadJSON reports whether it filled the value. It must report true only
// when it left the value exactly as the strict decoder (DecodeJSONFrom)
// would leave it from the same starting value, and the decoder would have
// reported no error. On false it must leave the value as it found it:
// DecodeJSON then hands body to the decoder, which decodes it into that
// value.
type JSONReader interface {
	ReadJSON(body []byte) bool
}

// DecodeJSON decodes body into v the way the strict decoder decodes a
// stream holding body: the same value and the same error on every input.
// When v is a JSONReader and ValidJSON accepts body, v reads body itself;
// every other body, and every body the reader refuses, goes to
// DecodeJSONFrom. A reader changes only the cost.
func DecodeJSON(body []byte, v any) error {
	if r, ok := v.(JSONReader); ok && ValidJSON(body) && r.ReadJSON(body) {
		return nil
	}
	return DecodeJSONFrom(bytes.NewReader(body), v)
}

// DecodeJSONFrom is the strict decoder every request body goes through: a
// json.Decoder that rejects unknown fields decodes the first JSON value
// read from src into v. It stops reading once it holds that value, and
// ignores whatever follows it.
func DecodeJSONFrom(src io.Reader, v any) error {
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
