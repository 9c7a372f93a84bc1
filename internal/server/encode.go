package server

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"legodb/internal/engine"
)

// bodyPool recycles /query response buffers across requests.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody caps the buffers bodyPool keeps: an occasional huge
// answer is left to the collector rather than pinned for every later
// request.
const maxPooledBody = 4 << 20

// writeQueryResponse writes a successful /query answer straight from the
// engine's values into a pooled buffer (see appendQueryResponse).
func writeQueryResponse(w http.ResponseWriter, rs *engine.ResultSet, elapsedMs float64) {
	bp := bodyPool.Get().(*[]byte)
	b := appendQueryResponse((*bp)[:0], rs, elapsedMs)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// appendQueryResponse appends the /query body for rs: byte for byte what
// json.Encoder makes of
//
//	{"columns": [...], "rows": [[...], ...], "elapsed_ms": x}
//
// with every cell rendered by Value.String — integers in decimal, NULL as
// "NULL" — strings HTML-escaped, null for a missing column list or an
// answer without rows, and a trailing newline.
func appendQueryResponse(b []byte, rs *engine.ResultSet, elapsedMs float64) []byte {
	b = append(b, `{"columns":`...)
	if rs.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range rs.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":`...)
	if len(rs.Rows) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, row := range rs.Rows {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			for j, v := range row {
				if j > 0 {
					b = append(b, ',')
				}
				switch v.Kind {
				case engine.IntValue:
					b = append(strconv.AppendInt(append(b, '"'), v.Int, 10), '"')
				case engine.StrValue:
					b = appendJSONString(b, v.Str)
				default:
					b = append(b, `"NULL"`...)
				}
			}
			b = append(b, ']')
		}
		b = append(b, ']')
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, elapsedMs)
	return append(b, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as encoding/json quotes it with HTML
// escaping on: `"` and `\` backslashed; \b \f \n \r \t by name; other
// control bytes and < > & as \u00XX; invalid UTF-8 as the escaped
// replacement character U+FFFD; U+2028 and U+2029 escaped too.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), "\\ufffd"...)
		case r == 0x2028 || r == 0x2029:
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest decimal that round-trips, in exponent form (without a padded
// exponent) only below 1e-6 or from 1e21 up.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	// e-09 becomes e-9.
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
