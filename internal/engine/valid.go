package engine

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
// digits followed directly by , or ], which is most of a deadline
// artifact's bytes, is checked by one loop over its digits.
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
		// The fast path: digits with no leading zero, then , or ]. Any
		// other element takes the general path from its first byte.
		if j := skipDigits(b, i); j > i && j < len(b) && (b[i] != '0' || j == i+1) {
			if b[j] == ',' {
				i = skipSpace(b, j+1)
				continue
			}
			if b[j] == ']' {
				return j + 1
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
