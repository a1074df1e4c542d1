// Package jsonenc holds the append-style JSON primitives behind the store's
// alert and incident payload encoders. Each writes exactly the bytes
// encoding/json's Marshal writes for the same Go value — strings with its
// HTML-safe escaping, float64s with its ES6-style formatting — so a payload
// built from them hashes like the reflective encoding it replaces, without
// reflection and without allocating beyond the destination buffer.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe marks the ASCII bytes encoding/json writes unescaped with HTML
// escaping on: everything printable (and DEL) except '"', '\\', '<', '>'
// and '&'.
var safe = func() (s [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		s[b] = true
	}
	for _, b := range `"\<>&` {
		s[b] = false
	}
	return s
}()

// String appends src as a JSON string: quoted, and escaped by Escape.
func String[S []byte | string](dst []byte, src S) []byte {
	dst = append(dst, '"')
	dst = Escape(dst, src)
	return append(dst, '"')
}

// Escape appends the body of src as a JSON string, escaped as encoding/json
// escapes it: '"' and '\\' backslashed, \b \f \n \r \t by name, other
// control bytes and '<', '>', '&' as \u00XX, each byte of invalid UTF-8 as
// \ufffd, and U+2028/U+2029 as \u2028/\u2029. Escaping consecutive
// pieces gives the bytes escaping their concatenation gives whenever no
// piece ends inside a UTF-8 sequence the next one completes.
func Escape[S []byte | string](dst []byte, src S) []byte {
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(src)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(src[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, src[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, src[start:]...)
}

// Float appends f as encoding/json writes a float64: the shortest
// round-trip form, in 'f' notation unless |f| < 1e-6 or |f| >= 1e21, where
// it switches to 'e' with a one-digit negative exponent left unpadded.
// NaN and ±Inf have no JSON form; the error is the one Marshal returns.
func Float(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// Key appends a member name and its colon: `"name":`, with a comma first
// unless dst ends an object or array opener. Names are the encoders' own
// struct tags, plain ASCII that needs no escaping.
func Key(dst []byte, name string) []byte {
	if n := len(dst); n > 0 && dst[n-1] != '{' && dst[n-1] != '[' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':')
}

// Int appends `"name":v`.
func Int(dst []byte, name string, v int64) []byte {
	return strconv.AppendInt(Key(dst, name), v, 10)
}

// Str appends `"name":"v"`, v escaped by String.
func Str(dst []byte, name, v string) []byte {
	return String(Key(dst, name), v)
}

// Bool appends `"name":true` or `"name":false`.
func Bool(dst []byte, name string, v bool) []byte {
	return strconv.AppendBool(Key(dst, name), v)
}

// Records encodes n records back to back into one buffer and returns one
// sub-slice of it per record: two allocations per batch when hint (the
// buffer's starting capacity) covers the whole batch, a few more when the
// buffer has to grow. enc appends record i to dst.
func Records(n, hint int, enc func(dst []byte, i int) ([]byte, error)) ([][]byte, error) {
	buf := make([]byte, 0, hint)
	out := make([][]byte, n)
	for i := range out {
		start := len(buf)
		var err error
		if buf, err = enc(buf, i); err != nil {
			return nil, err
		}
		out[i] = buf[start:]
	}
	// A grown buffer left the earlier records in its predecessors; point
	// every record into the final one.
	off := 0
	for i, p := range out {
		out[i] = buf[off : off+len(p) : off+len(p)]
		off += len(p)
	}
	return out, nil
}
