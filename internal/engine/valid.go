package engine

import (
	"bytes"
	"encoding/binary"
)

// maxNesting is encoding/json's nesting limit: a document with more than
// this many arrays and objects open at once is not valid.
const maxNesting = 10000

// ValidJSON reports whether data is one JSON document, with nothing but
// JSON whitespace around it. It accepts exactly the inputs
// encoding/json.Valid accepts: the same grammar, the same limit of 10,000
// nested arrays and objects, and, as there, no UTF-8 check, so a byte of
// 0x80 or above is accepted inside a string and rejected outside one.
//
// It is a recursive descent that allocates nothing, where json.Valid
// steps a state machine once per byte. An array element that is a run of
// digits followed directly by , or ] is checked by one loop over its
// digits. Once that loop has accepted a few elements of one array, a row
// loop (scanRow) checks the run of "digits, then a comma" elements that
// follows eight bytes a step, which covers most of a deadline artifact's
// bytes. Its test on each word flags every byte that is neither a digit
// nor a comma, a comma where a number starts, and a '0' that starts a
// number followed by a digit. Two bits carry the last byte of one word to
// the next: whether it was a comma, and whether it was a '0' that starts
// a number. At the first word that fails, or with fewer than eight bytes
// left, the row loop hands back to the element after the last comma it
// accepted.
func ValidJSON(data []byte) bool {
	i := skipSpace(data, scanValue(data, skipSpace(data, 0), 0))
	return i == len(data)
}

// Each scan function below checks the item that starts at b[i] and
// returns the index just past it, or -1 if b holds no valid item there.
// depth is the number of arrays and objects open around the item.

func scanValue(b []byte, i, depth int) int {
	if i >= len(b) {
		return -1
	}
	switch b[i] {
	case '{':
		return scanObject(b, i+1, depth+1)
	case '[':
		return scanArray(b, i+1, depth+1)
	case '"':
		return scanString(b, i+1)
	case 't':
		return scanLiteral(b, i, "true")
	case 'f':
		return scanLiteral(b, i, "false")
	case 'n':
		return scanLiteral(b, i, "null")
	}
	return scanNumber(b, i)
}

// scanArray checks an array whose [ is just before b[i].
func scanArray(b []byte, i, depth int) int {
	if depth > maxNesting {
		return -1
	}
	if i = skipSpace(b, i); i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		// The fast path: digits with no leading zero, then , or ]. Once it
		// has accepted rowEntry elements in a row, the row loop checks the
		// elements that follow. Any other element takes the general path
		// from its first byte.
		for fast := 1; ; fast++ {
			j := skipDigits(b, i)
			if j == i || j >= len(b) || b[i] == '0' && j > i+1 {
				break
			}
			if b[j] == ']' {
				return j + 1
			}
			if b[j] != ',' {
				break
			}
			i = skipSpace(b, j+1)
			if fast == rowEntry {
				i, fast = scanRow(b, i), 0
			}
		}
		if i = skipSpace(b, scanValue(b, i, depth)); i < 0 || i >= len(b) {
			return -1
		}
		if b[i] == ']' {
			return i + 1
		}
		if b[i] != ',' {
			return -1
		}
		i = skipSpace(b, i+1)
	}
}

// rowEntry is how many elements of one array the fast path accepts before
// scanArray runs the row loop. A short array, such as a multi-type
// artifact's [12,12], ends before the loop could pay for its exit.
const rowEntry = 4

// The row loop's constants repeat one byte in each of a word's eight
// bytes.
const (
	lanes = 0x0101010101010101
	high  = 0x80 * lanes // bit 7 of each byte, which holds the byte's flag
	low7  = 0x7f * lanes
)

// scanRow is ValidJSON's row loop. From b[i], the first byte of an
// element, it checks "digits, then a comma" elements eight bytes a step
// and returns the index just past the last comma in the words it
// accepted, after any whitespace, or i if there is none: every element
// before that index is checked, and scanArray checks the rest. The comma
// carry starts set, since b[i] starts a number. The loop always steps
// eight bytes and looks for the last comma only when it stops, so no step
// waits on where the one before it ended.
func scanRow(b []byte, i int) int {
	p, comma, zero := i, uint64(0x80), uint64(0)
	for ; p <= len(b)-8; p += 8 {
		w := binary.LittleEndian.Uint64(b[p : p+8])
		// d maps the digits to 0-9. On d's low seven bits, adding 0x76
		// reaches bit 7 from 10 up without a carry into the next byte, and
		// d's own bit 7 flags the bytes 0x80 and above, so commas flags
		// every byte that is not a digit. The first test below requires
		// each of those to be ',' (0xAC is not), so the flags are the
		// word's commas when it passes.
		d := w ^ '0'*lanes
		commas := (d | (d&low7 + (0x80-10)*lanes)) & high
		starts := commas<<8 | comma
		// Adding 0x7f leaves bit 7 clear on a byte of d exactly when it
		// is 0, a '0'. A byte of 0x80 and above can carry into the next
		// one, but it fails the word on its own.
		zeros := starts &^ (d + low7)
		if (w^','*lanes)&((commas>>7)*0xff)|starts&commas|(zeros<<8|zero)&^commas != 0 {
			break
		}
		comma, zero = commas>>56, zeros>>56
	}
	if k := bytes.LastIndexByte(b[i:p], ','); k >= 0 {
		return skipSpace(b, i+k+1)
	}
	return i
}

// scanObject checks an object whose { is just before b[i].
func scanObject(b []byte, i, depth int) int {
	if depth > maxNesting {
		return -1
	}
	if i = skipSpace(b, i); i < len(b) && b[i] == '}' {
		return i + 1
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return -1
		}
		if i = skipSpace(b, scanString(b, i+1)); i < 0 || i >= len(b) || b[i] != ':' {
			return -1
		}
		if i = skipSpace(b, scanValue(b, skipSpace(b, i+1), depth)); i < 0 || i >= len(b) {
			return -1
		}
		if b[i] == '}' {
			return i + 1
		}
		if b[i] != ',' {
			return -1
		}
		i = skipSpace(b, i+1)
	}
}

// scanString checks a string whose opening quote is just before b[i].
func scanString(b []byte, i int) int {
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c != '\\':
			i++
		case i+1 >= len(b):
			return -1
		default:
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if len(b)-i < 6 || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) || !isHex(b[i+5]) {
					return -1
				}
				i += 6
			default:
				return -1
			}
		}
	}
	return -1
}

// scanNumber checks a number: an optional minus, an integer part with no
// leading zero, then an optional fraction and exponent, each with at least
// one digit.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i >= len(b):
		return -1
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace, and a negative i as it is.
func skipSpace(b []byte, i int) int {
	for 0 <= i && i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
