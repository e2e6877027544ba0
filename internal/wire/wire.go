// Package wire is the runtime's one byte codec, for RPC frames
// (internal/distributed), GraphDefs (internal/graph) and checkpoints
// (internal/checkpoint). A type lists its fields once, in a method that takes
// a *Codec, and the codec's direction decides whether each field is appended
// (an encoder) or parsed (a decoder). ARCHITECTURE.md "TCP transport" has the
// field encodings. Decoded bytes are untrusted input: nothing is sized from
// them that the decoder's limit, and then the bytes left under it, do not
// cover.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"

	"repro/internal/tensor"
)

// Codec encodes into memory (NewEncoder) or decodes the next limit bytes of a
// reader (NewDecoder).
type Codec struct {
	enc bool
	err error // first field that cannot be encoded, or did not parse

	buf  []byte // the encoding, but for the tensor payloads in cuts
	cuts []cut
	iov  net.Buffers

	r     io.Reader
	rem   int          // bytes under the limit not yet consumed
	alloc tensor.Alloc // what OptTensorAlloc fields decode into; nil: tensor.New
	tmp   [8]byte
}

// cut is a payload that goes out from the tensor's own memory, between
// buf[:at] and buf[at:].
type cut struct {
	at  int
	raw []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Codec { return &Codec{enc: true} }

// NewDecoder returns a decoder of at most the next limit bytes of r.
func NewDecoder(r io.Reader, limit int) *Codec { return &Codec{r: r, rem: limit} }

// WithAlloc sets the allocator a decoder's OptTensorAlloc fields decode into
// (nil: tensor.New), and returns the decoder.
func (c *Codec) WithAlloc(a tensor.Alloc) *Codec {
	c.alloc = a
	return c
}

// Encoding reports the codec's direction.
func (c *Codec) Encoding() bool { return c.enc }

// Left returns how many bytes under a decoder's limit are not yet consumed.
func (c *Codec) Left() int { return c.rem }

// Fail records a failure unless one is recorded already; every later field
// is then a no-op.
func (c *Codec) Fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, a...)
	}
}

// End returns the first failure, or for a decoder an error if bytes under its
// limit were left unparsed.
func (c *Codec) End() error {
	if c.err == nil && c.rem > 0 {
		c.Fail("%d bytes trail the body", c.rem)
	}
	return c.err
}

// fill reads the next len(b) bytes into b.
func (c *Codec) fill(b []byte) bool {
	if c.err == nil && len(b) > c.rem {
		c.Fail("field of %d bytes with %d left", len(b), c.rem)
	}
	if c.err != nil {
		return false
	}
	n, err := io.ReadFull(c.r, b)
	c.rem, c.err = c.rem-n, err
	return err == nil
}

// Magic moves the fixed bytes m that open a format, and returns the first
// failure: a decoder refuses any other opening with an error that names m.
func (c *Codec) Magic(m string) error {
	if c.enc {
		c.buf = append(c.buf, m...)
	} else if b := make([]byte, min(len(m), c.rem)); c.fill(b) && string(b) != m {
		c.Fail("stream opens with %q, not %q", b, m)
	}
	return c.err
}

// Uint moves v as size little-endian bytes and returns what was parsed.
func (c *Codec) Uint(v uint64, size int) uint64 {
	if c.enc {
		binary.LittleEndian.PutUint64(c.tmp[:], v)
		c.buf = append(c.buf, c.tmp[:size]...)
		return v
	}
	if c.tmp = [8]byte{}; !c.fill(c.tmp[:size]) {
		return 0
	}
	return binary.LittleEndian.Uint64(c.tmp[:])
}

// Num moves an int or int64 as 8 bytes.
func Num[T int | int64](c *Codec, p *T) {
	if v := c.Uint(uint64(*p), 8); !c.enc {
		if *p = T(v); uint64(*p) != v {
			c.Fail("integer %d overflows %T", int64(v), *p)
		}
	}
}

// F64 moves a float64's bits.
func (c *Codec) F64(p *float64) {
	if v := c.Uint(math.Float64bits(*p), 8); !c.enc {
		*p = math.Float64frombits(v)
	}
}

// Flag moves a bool or a presence byte: 0 or 1, nothing else.
func (c *Codec) Flag(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	if v = c.Uint(v, 1); !c.enc {
		if *p = v == 1; v > 1 {
			c.Fail("byte %d where 0 or 1 belongs", v)
		}
	}
}

// count moves a length prefix. Every element it announces takes at least one
// byte, so a parsed count above what is left under the limit is refused
// before anything is sized from it.
func (c *Codec) count(n int) int {
	if v := c.Uint(uint64(n), 4); !c.enc {
		if n = int(v); v > uint64(c.rem) {
			c.Fail("count %d with %d bytes left", v, c.rem)
			return 0
		}
	}
	return n
}

// Blob moves a string or byte slice.
func Blob[T ~string | ~[]byte](c *Codec, p *T) {
	if n := c.count(len(*p)); c.enc {
		c.buf = append(c.buf, *p...)
	} else if b := make([]byte, n); n > 0 && c.fill(b) {
		*p = T(b)
	}
}

// Str moves a string.
func (c *Codec) Str(p *string) { Blob(c, p) }

// List moves a slice's length and then each element through elem. Decoding
// (into an empty slice) grows the slice as elements parse, never ahead.
func List[S ~[]E, E any](c *Codec, p *S, elem func(*E)) {
	n := c.count(len(*p))
	for i := 0; i < n && c.err == nil; i++ {
		if !c.enc {
			*p = append(*p, *new(E))
		}
		elem(&(*p)[i])
	}
}

// Tensor moves a tensor's stream encoding — out of the tensor's own memory
// when encoding, straight into the destination's when decoding.
func (c *Codec) Tensor(p **tensor.Tensor) { c.tensor(p, nil) }

// tensor is Tensor, a decoder taking the destination from alloc (nil:
// tensor.New).
func (c *Codec) tensor(p **tensor.Tensor, alloc tensor.Alloc) {
	switch {
	case c.err != nil:
	case !c.enc:
		if alloc == nil {
			alloc = tensor.New
		}
		t, n, err := tensor.ReadFromAlloc(c.r, int64(c.rem), alloc)
		*p, c.rem, c.err = t, c.rem-int(n), err
	case *p == nil:
		c.Fail("nil tensor where a tensor belongs")
	default:
		buf, raw, err := (*p).AppendEncoding(c.buf)
		if c.buf = buf; err != nil {
			c.Fail("%v", err)
		} else if len(raw) > 0 {
			c.cuts = append(c.cuts, cut{len(buf), raw})
		}
	}
}

// OptTensor moves a presence byte and then, if present, the tensor.
func (c *Codec) OptTensor(p **tensor.Tensor) {
	present := *p != nil
	if c.Flag(&present); present {
		c.Tensor(p)
	}
}

// OptTensorAlloc is OptTensor for a field whose tensor a decoder takes from
// its allocator (WithAlloc). The encoding is OptTensor's.
func (c *Codec) OptTensorAlloc(p **tensor.Tensor) {
	present := *p != nil
	if c.Flag(&present); present {
		c.tensor(p, c.alloc)
	}
}

// Backfill sets the u32 an encoder moved at offset off, ahead of any tensor,
// to the number of bytes encoded after it, payloads included, and returns
// that number: a length known only once what follows it is encoded.
func (c *Codec) Backfill(off int) int {
	n := len(c.buf) - off - 4
	for _, k := range c.cuts {
		n += len(k.raw)
	}
	binary.LittleEndian.PutUint32(c.buf[off:], uint32(n))
	return n
}

// WriteTo writes an encoder's encoding with one gathered write: the small
// fields from its buffer, each tensor payload from the tensor's own memory.
// The tensors must not change until it returns.
func (c *Codec) WriteTo(w io.Writer) (int64, error) {
	iov := c.Chunks() // WriteTo consumes the slice it is called on
	return iov.WriteTo(w)
}

// Chunks returns an encoder's encoding as the slices WriteTo writes, for a
// reader in the same process to decode from without a copy in between. They
// are valid until Reset, and the tensors must not change until they are read.
func (c *Codec) Chunks() net.Buffers {
	at := 0
	c.iov = c.iov[:0]
	for _, k := range c.cuts {
		c.iov = append(c.iov, c.buf[at:k.at], k.raw)
		at = k.at
	}
	c.iov = append(c.iov, c.buf[at:])
	return c.iov
}

// Reset empties an encoder for reuse, keeping its memory and dropping its
// references into tensors.
func (c *Codec) Reset() {
	clear(c.cuts)
	clear(c.iov)
	c.buf, c.cuts, c.iov, c.err = c.buf[:0], c.cuts[:0], c.iov[:0], nil
}
