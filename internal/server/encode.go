package server

import (
	"math"
	"math/bits"
	"slices"
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

// takeBody takes an empty /query response buffer from bodyPool.
func (s *Server) takeBody() *[]byte {
	s.bodiesHeld.Add(1)
	bp := bodyPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// releaseBody hands a /query response buffer back to bodyPool, unless
// it grew past maxPooledBody.
func (s *Server) releaseBody(bp *[]byte, b []byte) {
	s.bodiesHeld.Add(-1)
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// queryEncoder is the engine.RowSink that encodes a /query answer as the
// engine projects it, straight from the values into one buffer: byte
// for byte what json.Encoder makes of
//
//	{"columns": [...], "rows": [[...], ...], "elapsed_ms": x}
//
// with every cell rendered by Value.String — integers in decimal, NULL as
// "NULL" — strings HTML-escaped, null for a missing column list or an
// answer without rows, and a trailing newline. Rows narrower than the
// column list are padded with "NULL".
type queryEncoder struct {
	b     []byte
	width int // the column list's length
	rows  int // rows encoded so far
	// rowsAt is where the rows array starts in b.
	rowsAt int
}

// cellGuess is the bytes a cell is guessed to take before any row of
// the answer has been encoded.
const cellGuess = 8

func (e *queryEncoder) Start(columns []string) {
	b := append(e.b, `{"columns":`...)
	if columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, c)
		}
		b = append(b, ']')
	}
	e.b = append(b, `,"rows":`...)
	e.width, e.rowsAt = len(columns), len(e.b)
}

// Block reserves room for n more rows, once per block, at the mean size
// of the rows encoded so far.
func (e *queryEncoder) Block(n int) {
	per := e.width*(cellGuess+1) + 2
	if e.rows > 0 {
		per = (len(e.b)-e.rowsAt)/e.rows + 1
	}
	e.b = slices.Grow(e.b, n*per)
}

func (e *queryEncoder) Rows(rows []engine.Row) {
	b := e.b
	for _, row := range rows {
		if e.rows == 0 {
			b = append(b, '[', '[')
		} else {
			b = append(b, ',', '[')
		}
		e.rows++
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			switch v.Kind {
			case engine.IntValue:
				b = append(appendInt(append(b, '"'), v.Int), '"')
			case engine.StrValue:
				b = appendJSONString(b, v.Str)
			default:
				b = append(b, `"NULL"`...)
			}
		}
		for j := len(row); j < e.width; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `"NULL"`...)
		}
		b = append(b, ']')
	}
	e.b = b
}

// finish closes the body with the answer's elapsed time and returns it.
func (e *queryEncoder) finish(elapsedMs float64) []byte {
	b := e.b
	if e.rows == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, ']')
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendJSONFloat(b, elapsedMs)
	e.b = append(b, "}\n"...)
	return e.b
}

// digitPairs holds "00" through "99": appendInt writes two digits a
// step.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds the powers of ten a uint64 holds.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendInt appends n in decimal, as strconv.AppendInt(b, n, 10) does,
// writing two digits a step straight into b.
func appendInt(b []byte, n int64) []byte {
	u := uint64(n)
	if n < 0 {
		b = append(b, '-')
		u = -u
	}
	// The digit count: log10 from the bit length (1233/4096 ≈ log10 2),
	// one short at most.
	d := bits.Len64(u) * 1233 >> 12
	if u >= pow10[d] {
		d++
	}
	d = max(d, 1)
	if cap(b)-len(b) < d {
		b = slices.Grow(b, d)
	}
	i := len(b) + d
	b = b[:i]
	for u >= 100 {
		q := u / 100
		r := (u - q*100) * 2
		i -= 2
		b[i], b[i+1] = digitPairs[r], digitPairs[r+1]
		u = q
	}
	if u >= 10 {
		b[i-2], b[i-1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		b[i-1] = byte('0' + u)
	}
	return b
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
		if jsonSafe[s[i]] {
			i++
			continue
		}
		if c := s[i]; c < utf8.RuneSelf {
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

// jsonSafe[c] reports whether appendJSONString copies byte c as it is
// without a closer look: printable ASCII other than " \ < > &.
var jsonSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

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
