// Package artifact holds what every artifact writer shares: the buffered
// stream an export is written through and the byte-level renderers its
// rows are built from.
//
// A writer renders each row with strconv.Append* (and the helpers here)
// into one reused []byte, copies the row into the stream, and returns the
// stream's Flush error. No writer holds a whole file in memory, and an
// export allocates the same few objects whether it writes ten rows or ten
// million.
package artifact

import (
	"bufio"
	"io"
	"strconv"
)

// bufSize is the stream buffer: large enough that a multi-megabyte export
// reaches the file in a few hundred writes.
const bufSize = 64 << 10

// NewWriter returns w wrapped in the stream an artifact is written
// through. Write errors are sticky, so the writer's result is its Flush.
func NewWriter(w io.Writer) *bufio.Writer { return bufio.NewWriterSize(w, bufSize) }

// AppendFloat appends v in the form every artifact uses for floats: the
// shortest 'g' rendering that reads back to the same bits.
func AppendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

// AppendQuote appends s quoted exactly as strconv.AppendQuote (and fmt's
// %q) would. Strings of printable ASCII without '"' or '\', which is
// every name the simulator makes, are copied without decoding runes.
func AppendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendJSONString appends s as a JSON string: '"' and '\' are
// backslash-escaped, bytes below 0x20 become \u00xx, and every other byte,
// non-ASCII included, is copied as is.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		if c < 0x20 {
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		} else {
			b = append(b, '\\', c)
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
