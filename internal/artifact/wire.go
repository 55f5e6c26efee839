package artifact

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Writer builds a canonical little-endian payload. It is the repo's one
// binary encoder: artifact payloads (cfg, liveness, core, preempt,
// harness), CSNP checkpoints (snapshot) and program images (isa) are
// all written with it, each owning package serializing its own types so
// unexported fields never have to cross package boundaries.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{} }

// Data returns the accumulated payload bytes.
func (w *Writer) Data() []byte { return w.buf }

// Grow reserves room for n more bytes: at least doubling, so repeated
// small reservations stay amortized, and exactly n more when that is
// larger, so a known final size (a checkpoint's memory image) costs one
// allocation of that size. It copies into a fresh make rather than
// appending one, which the race detector's build would allocate twice.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		buf := make([]byte, len(w.buf), max(2*cap(w.buf), len(w.buf)+n))
		copy(buf, w.buf)
		w.buf = buf
	}
}

// Raw appends bytes with no length prefix (magics, fixed-width fields).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// I32 encodes an int as its low 32 bits (the reader sign-extends).
func (w *Writer) I32(v int) { w.U32(uint32(int32(v))) }

// I64 encodes a signed value as its two's-complement u64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int encodes an int as I64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool encodes false/true as exactly 0/1 (the reader rejects any other
// byte, keeping the form canonical).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 encodes the IEEE-754 bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(v []byte) {
	w.U32(uint32(len(v)))
	w.Raw(v)
}

// Str writes a string as Bytes.
func (w *Writer) Str(v string) {
	w.U32(uint32(len(v)))
	w.buf = append(w.buf, v...)
}

// U32s writes a u32 count followed by the words, growing the buffer
// once for the whole slice (the bulk path for memory images).
func (w *Writer) U32s(s []uint32) {
	w.U32(uint32(len(s)))
	w.Grow(4 * len(s))
	off := len(w.buf)
	w.buf = w.buf[:off+4*len(s)]
	out := w.buf[off:]
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
}

// Section frames the body put writes, in place:
//
//	id u16 | len u32 | body | Checksum(body) u64
//
// The length is back-patched once the body is written, so no body is
// ever built in a scratch buffer and copied. Both the CART container
// and the CSNP checkpoint format are sequences of these frames.
func (w *Writer) Section(id uint16, put func(*Writer)) {
	w.U16(id)
	at := len(w.buf)
	w.U32(0)
	put(w)
	body := w.buf[at+4:]
	binary.LittleEndian.PutUint32(w.buf[at:], uint32(len(body)))
	w.U64(Checksum(body))
}

// Reader decodes a payload produced by Writer. It is sticky-error: the
// first failure latches, later reads return zero values, and Close
// reports the latched error (or a canonical-form violation if bytes
// remain unconsumed).
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps payload bytes for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the latched decode error, if any.
func (r *Reader) Err() error { return r.err }

// Offset is the number of bytes consumed; after a failed read it is
// the offset of the read that failed.
func (r *Reader) Offset() int { return r.off }

// Close verifies the payload was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		r.err = fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.data)-r.off)
	}
	return r.err
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Fail latches an external decode error (e.g. from a nested codec) so
// the caller's single Err/Close check observes it.
func (r *Reader) Fail(err error) { r.fail(err) }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, r.off, len(r.data)))
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Raw returns the next n bytes with no length prefix (a view into the
// underlying buffer — copy if retained).
func (r *Reader) Raw(n int) []byte { return r.take(n) }

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 decodes a sign-extended I32.
func (r *Reader) I32() int { return int(int32(r.U32())) }

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int decodes an I64 and checks it fits the platform int.
func (r *Reader) Int() int {
	v := r.I64()
	if int64(int(v)) != v {
		r.fail(fmt.Errorf("%w: integer %d overflows int", ErrCorrupt, v))
		return 0
	}
	return int(v)
}

func (r *Reader) Bool() bool {
	switch r.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("%w: non-canonical bool", ErrCorrupt))
		return false
	}
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes decodes a u32 length prefix and returns the raw bytes (a view
// into the underlying buffer — copy if retained).
func (r *Reader) Bytes() []byte {
	n := r.U32()
	return r.take(int(n))
}

// Str decodes Bytes as a string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Len counts a non-negative collection length and bounds it by the
// remaining payload so corrupt lengths fail fast instead of allocating.
func (r *Reader) Len() int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	if n < 0 || n > len(r.data)-r.off {
		r.fail(fmt.Errorf("%w: implausible collection length %d", ErrCorrupt, n))
		return 0
	}
	return n
}

// Count decodes a u32 collection count and bounds it by the bytes
// remaining, elem being the smallest encoding of one element, so a
// corrupt count fails before the caller allocates for it.
func (r *Reader) Count(elem int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n*elem > len(r.data)-r.off {
		r.fail(fmt.Errorf("%w: %d elements of %d bytes at offset %d, %d bytes left",
			ErrTruncated, n, elem, r.off, len(r.data)-r.off))
		return 0
	}
	return n
}

// U32s decodes a Writer.U32s word slice (nil when empty).
func (r *Reader) U32s() []uint32 {
	n := r.Count(4)
	raw := r.take(4 * n)
	if n == 0 || raw == nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out
}

// Section reads one Writer.Section frame, which must carry id want, and
// returns its body (a view) with the stored checksum. Verifying the sum
// is the caller's move, so a container can check it eagerly or defer
// it (the speculative checkpoint restore defers the memory image's).
func (r *Reader) Section(want uint16) (body []byte, sum uint64) {
	id := r.U16()
	n := r.U32()
	if r.err == nil && id != want {
		r.fail(fmt.Errorf("%w: section id %d (want %d)", ErrCorrupt, id, want))
	}
	body = r.take(int(n))
	return body, r.U64()
}

// Checksum is the FNV-1a 64 hash of b, the checksum of every section
// frame.
func Checksum(b []byte) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
