package spec

import (
	"fmt"
	"strings"
)

// EncodeSymbol encodes a symbolic constant (e.g. the stock ticker "GOOGL")
// into the numeric domain of a query field. Symbols are encoded the way
// ITCH encodes alpha fields: ASCII, left-justified, space-padded to the
// field width, interpreted big-endian. An 8-byte stock field therefore
// holds "GOOGL   " as a uint64.
func EncodeSymbol(q *QueryField, sym string) (uint64, error) {
	if q.Bits%8 != 0 {
		return 0, fmt.Errorf("field %s: symbolic constants need a byte-aligned field, have %d bits", q.Name, q.Bits)
	}
	width := q.Bits / 8
	if len(sym) > width {
		return 0, fmt.Errorf("field %s: symbol %q longer than field width %d bytes", q.Name, sym, width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		var c byte = ' '
		if i < len(sym) {
			c = sym[i]
			if c < 0x20 || c > 0x7e {
				return 0, fmt.Errorf("field %s: symbol %q contains non-printable byte 0x%02x", q.Name, sym, c)
			}
		}
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// DecodeSymbol reverses EncodeSymbol, trimming the space padding.
func DecodeSymbol(q *QueryField, v uint64) string {
	width := q.Bits / 8
	if width == 0 {
		width = 8
	}
	b := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return strings.TrimRight(string(b), " ")
}
