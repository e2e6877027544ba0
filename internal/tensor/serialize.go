package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"unsafe"
)

// Serialization format (little-endian):
//
//	u8   dtype
//	u32  rank
//	u32 × rank  dims
//	payload: raw element bytes (numeric/bool) or length-prefixed strings
//
// The same encoding is used by the checkpoint files (internal/checkpoint)
// and the inter-task transport (internal/distributed), so a tensor that
// round-trips through either path is bit-identical. A stream is untrusted
// input: ReadFromLimit sizes nothing from it that its limit does not cover.

const (
	maxRank = 32
	// maxStreamBytes is the limit of the plain ReadFrom, which has no
	// enclosing frame or file to take one from.
	maxStreamBytes = 1 << 32
)

// littleEndian reports that this host lays numbers out as the stream does:
// the memory of an Int32/Int64/Float32/Float64 tensor then IS its payload
// and moves in bulk. Elsewhere — and as the reference the tests hold the
// bulk path to — encoding/binary converts element by element.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func byteView[T int32 | int64 | float32 | float64](s []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(z)))
}

// rawBytes views the backing memory of a fixed-width numeric tensor as
// bytes; nil for Bool (a stream byte must never become a Go bool unchecked)
// and String.
func (t *Tensor) rawBytes() []byte {
	switch s := t.buf.(type) {
	case []int32:
		return byteView(s)
	case []int64:
		return byteView(s)
	case []float32:
		return byteView(s)
	case []float64:
		return byteView(s)
	}
	return nil
}

// AppendEncoding appends the tensor's encoding to b. When the tensor's own
// memory is its payload that memory is returned as raw instead of being
// copied — the caller writes enc, then raw, and must be done with raw before
// anything mutates the tensor; otherwise raw is nil and enc is complete.
func (t *Tensor) AppendEncoding(b []byte) (enc, raw []byte, err error) {
	return t.appendEncoding(b, littleEndian)
}

func (t *Tensor) appendEncoding(b []byte, bulk bool) (enc, raw []byte, err error) {
	b = append(b, byte(t.dtype))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.shape)))
	for _, d := range t.shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	switch raw = t.rawBytes(); {
	case bulk && raw != nil:
		return b, raw, nil
	case t.dtype == String:
		for _, s := range t.Strings() {
			b = append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
		}
	case t.dtype >= Bool && t.dtype <= Float64:
		b, err = binary.Append(b, binary.LittleEndian, t.buf)
	default:
		err = fmt.Errorf("tensor: cannot serialize dtype %v", t.dtype)
	}
	return b, nil, err
}

// WriteTo encodes the tensor to w and returns the number of bytes written.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	enc, raw, err := t.AppendEncoding(nil)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(enc)
	if err != nil || len(raw) == 0 {
		return int64(n), err
	}
	m, err := w.Write(raw)
	return int64(n + m), err
}

// payloadElements returns shape's element count, or an error when the count
// overflows or a payload of that many dt elements cannot fit in limit bytes
// (a String element is charged its 4-byte length prefix, the least it takes).
func payloadElements(dt DType, shape Shape, limit int64) (int, error) {
	if slices.Contains(shape, 0) {
		return 0, nil
	}
	most, n := limit/4, int64(1)
	if dt != String {
		most = limit / int64(dt.Size())
	}
	fits := most >= 1
	for _, d := range shape {
		if fits = fits && int64(d) <= most/n; fits {
			n *= int64(d)
		}
	}
	if !fits {
		return 0, fmt.Errorf("tensor: shape %v in stream needs more than the %d bytes that can follow", shape, limit)
	}
	return int(n), nil
}

// ReadFrom decodes a tensor previously written by WriteTo.
func ReadFrom(r io.Reader) (*Tensor, error) {
	t, _, err := ReadFromLimit(r, maxStreamBytes)
	return t, err
}

// ReadFromLimit is ReadFrom for a stream of which at most limit bytes can
// belong to the tensor (what is left of the enclosing frame or file): an
// encoding that claims more is refused before anything is sized from it. It
// also returns the number of bytes it consumed, error or not.
func ReadFromLimit(r io.Reader, limit int64) (t *Tensor, n int64, err error) {
	return readFrom(r, limit, New, littleEndian)
}

// ReadFromAlloc is ReadFromLimit decoding into a buffer from alloc, which is
// asked for one only once the limit covers the payload. The decoder writes
// every element of what alloc returns, or fails: a buffer that came with the
// failure holds stale and partial contents, and is the caller's to drop.
func ReadFromAlloc(r io.Reader, limit int64, alloc Alloc) (t *Tensor, n int64, err error) {
	return readFrom(r, limit, alloc, littleEndian)
}

// header is the scratch a decode reads its dtype, rank and dims into; pooled,
// so that a steady-state decode allocates only its Shape.
type header [5 + 4*maxRank]byte

var headers = sync.Pool{New: func() any { return new(header) }}

func readFrom(r io.Reader, limit int64, alloc Alloc, bulk bool) (_ *Tensor, n int64, err error) {
	// fill reads the next len(b) bytes into b, once the limit covers them.
	fill := func(b []byte) error {
		if k := int64(len(b)); k > limit-n {
			return fmt.Errorf("tensor: stream claims %d bytes where at most %d can follow", k, limit-n)
		}
		m, err := io.ReadFull(r, b)
		n += int64(m)
		return err
	}
	// take allocates and reads the next k bytes, once the limit covers them.
	take := func(k int64) ([]byte, error) {
		if k > limit-n {
			return nil, fmt.Errorf("tensor: stream claims %d bytes where at most %d can follow", k, limit-n)
		}
		b := make([]byte, k)
		return b, fill(b)
	}
	hdr := headers.Get().(*header)
	defer headers.Put(hdr)
	if err := fill(hdr[:5]); err != nil {
		return nil, n, err
	}
	dt, rank := DType(hdr[0]), binary.LittleEndian.Uint32(hdr[1:])
	if dt < Bool || dt > String || rank > maxRank {
		return nil, n, fmt.Errorf("tensor: cannot deserialize dtype %d of rank %d", dt, rank)
	}
	dims := hdr[5 : 5+4*rank]
	if err := fill(dims); err != nil {
		return nil, n, err
	}
	shape := make(Shape, rank)
	for i := range shape {
		if shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:])); shape[i] < 0 {
			return nil, n, fmt.Errorf("tensor: dimension in stream overflows int")
		}
	}
	cnt, err := payloadElements(dt, shape, limit-n)
	if err != nil {
		return nil, n, err
	}
	t := alloc(dt, shape)
	var buf []byte
	switch raw := t.rawBytes(); {
	case bulk && raw != nil:
		err = fill(raw)
	case dt == String:
		for i := 0; i < cnt && err == nil; i++ {
			if buf, err = take(4); err == nil {
				buf, err = take(int64(binary.LittleEndian.Uint32(buf)))
				t.Strings()[i] = string(buf)
			}
		}
	default:
		if buf, err = take(int64(cnt * dt.Size())); err == nil {
			_, err = binary.Decode(buf, binary.LittleEndian, t.buf)
		}
	}
	if err != nil {
		return nil, n, err
	}
	return t, n, nil
}
