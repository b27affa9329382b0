// Package codec is the binary framing every consensus-path format shares:
// PBFT messages and their MAC envelope, the request batch, the chain
// transaction, and the durable journal records and snapshots. Values are
// written in a fixed field order as unsigned varints, length-prefixed
// byte strings, and fixed 32-byte digests, with no field names or type
// tags on the wire.
//
// Decoding is strict, so that every accepted input has exactly one
// encoding: a varint must use its minimal form, a length may not exceed
// the bytes that remain, and Done rejects trailing bytes. Bytes the
// Reader returns alias its input; callers that keep them must not
// mutate the buffer they decoded from.
package codec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
)

// Writer appends encoded fields to a growing buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer whose buffer has room for size bytes.
func NewWriter(size int) *Writer { return &Writer{buf: make([]byte, 0, size)} }

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the buffer for reuse, keeping its capacity.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Byte writes one raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool writes a boolean as one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Uvarint writes v as a minimal unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Blob writes b with a uvarint length prefix.
func (w *Writer) Blob(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String writes s with a uvarint length prefix.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Digest writes a fixed 32-byte value with no prefix.
func (w *Writer) Digest(d [32]byte) { w.buf = append(w.buf, d[:]...) }

// Errors a Reader reports. Every decode failure wraps ErrMalformed.
var (
	ErrMalformed = errors.New("codec: malformed encoding")
	errTruncated = fmt.Errorf("%w: truncated", ErrMalformed)
	errOverlong  = fmt.Errorf("%w: varint not in minimal form", ErrMalformed)
	errTooLong   = fmt.Errorf("%w: length exceeds remaining input", ErrMalformed)
	errTrailing  = fmt.Errorf("%w: trailing bytes", ErrMalformed)
	errBool      = fmt.Errorf("%w: boolean not 0 or 1", ErrMalformed)
)

// Reader decodes fields from a buffer. The first failure is sticky:
// later reads return zero values and Done reports it, so a decoder
// reads every field and checks once at the end.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Done reports the first decode failure, or a trailing-bytes error if
// input remains.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) > 0 {
		r.err = errTrailing
	}
	return r.err
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.err = errTruncated
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bool reads a boolean written by Writer.Bool.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.err = errBool
	}
	return b == 1
}

// Uvarint reads a minimal unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.err = errTruncated
		return 0
	case n < 0:
		r.err = fmt.Errorf("%w: varint overflows 64 bits", ErrMalformed)
		return 0
	case n > 1 && r.buf[n-1] == 0:
		// A final group of zero adds nothing: the same value has a
		// shorter encoding.
		r.err = errOverlong
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// take returns the next n bytes, aliasing the input.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = errTooLong
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Blob reads a length-prefixed byte string. An empty string decodes as
// nil. The result aliases the input.
func (r *Reader) Blob() []byte {
	b := r.take(r.Uvarint())
	if len(b) == 0 {
		return nil
	}
	return b
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.take(r.Uvarint())) }

// Digest reads a fixed 32-byte value.
func (r *Reader) Digest() (d [32]byte) {
	copy(d[:], r.take(32))
	return d
}

// Count reads an element count for a list whose elements each encode to
// at least minSize bytes, rejecting a count the remaining input cannot
// hold, so a hostile count cannot make the caller allocate more than
// the input's size.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/minSize) {
		r.err = errTooLong
		return 0
	}
	return int(n)
}

// WriteList writes the element count, then each element with enc.
func WriteList[T any](w *Writer, xs []T, enc func(*T, *Writer)) {
	w.Uvarint(uint64(len(xs)))
	for i := range xs {
		enc(&xs[i], w)
	}
}

// ReadList reads a list written by WriteList whose elements each encode
// to at least minSize bytes (see Count). An empty list decodes as nil.
func ReadList[T any](rd *Reader, minSize int, dec func(*T, *Reader)) []T {
	n := rd.Count(minSize)
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		dec(&xs[i], rd)
	}
	return xs
}

// ForeignFormat names the format of durable data that failed a format
// check, for the refusal message. Every format before this codec was a
// JSON object: one with a "format" field is named by it, one without is
// named unlabelled; anything else is unrecognised.
func ForeignFormat(b []byte, unlabelled string) string {
	var head struct {
		Format string `json:"format"`
	}
	switch {
	case json.Unmarshal(b, &head) != nil:
		return "unrecognised"
	case head.Format != "":
		return head.Format
	default:
		return unlabelled
	}
}
