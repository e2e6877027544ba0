package distributed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"

	"repro/internal/tensor"
)

// The TCP transport's byte format (ARCHITECTURE.md "TCP transport" has the
// layout tables). A client opens its stream with preface; after it, either
// way, come little-endian frames
//
//	u32 length | u64 call id | u8 method | u8 flags | body
//
// where length counts everything after itself and a body is its message's
// fields in declaration order. A frame is untrusted input: nothing is sized
// from it that maxFrame, and then the bytes left in the frame, do not cover.
const (
	preface     = "TFGORPC1" // magic + format version
	frameFixed  = 8 + 1 + 1  // call id, method, flags
	flagError   = 1          // reply: the body is the error's text
	maxInFlight = 1024       // handler goroutines per connection; the read loop stops reading at the cap
)

// maxFrame bounds a frame's length prefix, checked before anything is
// allocated for it (a variable only so a test can lower it).
var maxFrame = 1 << 30

// Message is a request or response of one of the seven calls — the structs of
// cluster.go and nothing else: wire lists its fields once, and the codec's
// direction decides whether each is appended or parsed.
type Message interface{ wire(c *codec) }

// codec encodes one frame (enc) or decodes the bodies of the frames read
// from r.
type codec struct {
	enc bool
	err error // first field that cannot be sent, or did not parse

	buf  []byte // the frame, but for the tensor payloads in cuts
	cuts []cut
	iov  net.Buffers

	r   *bufio.Reader
	rem int // body bytes not yet consumed
	tmp [8]byte
}

// cut is a payload that goes out from the tensor's own memory, between
// buf[:at] and buf[at:].
type cut struct {
	at  int
	raw []byte
}

func (c *codec) fail(format string, a ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, a...)
	}
}

// fill reads the next len(b) body bytes into b.
func (c *codec) fill(b []byte) bool {
	if c.err == nil && len(b) > c.rem {
		c.fail("field of %d bytes, %d left in the frame", len(b), c.rem)
	}
	if c.err != nil {
		return false
	}
	n, err := io.ReadFull(c.r, b)
	c.rem, c.err = c.rem-n, err
	return err == nil
}

// uint moves v as size little-endian bytes and returns what was parsed.
func (c *codec) uint(v uint64, size int) uint64 {
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

func num[T int | int64](c *codec, p *T) {
	if v := c.uint(uint64(*p), 8); !c.enc {
		if *p = T(v); uint64(*p) != v {
			c.fail("integer %d overflows %T", int64(v), *p)
		}
	}
}

func (c *codec) f64(p *float64) {
	if v := c.uint(math.Float64bits(*p), 8); !c.enc {
		*p = math.Float64frombits(v)
	}
}

// flag moves a bool or a presence byte: 0 or 1, nothing else.
func (c *codec) flag(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	if v = c.uint(v, 1); !c.enc {
		if *p = v == 1; v > 1 {
			c.fail("byte %d where 0 or 1 belongs", v)
		}
	}
}

// count moves a length prefix. Every element it announces takes at least one
// byte, so a parsed count above what is left of the frame is refused before
// anything is sized from it.
func (c *codec) count(n int) int {
	if v := c.uint(uint64(n), 4); !c.enc {
		if n = int(v); v > uint64(c.rem) {
			c.fail("count %d with %d bytes left in the frame", v, c.rem)
			return 0
		}
	}
	return n
}

func blob[T ~string | ~[]byte](c *codec, p *T) {
	if n := c.count(len(*p)); c.enc {
		c.buf = append(c.buf, *p...)
	} else if b := make([]byte, n); n > 0 && c.fill(b) {
		*p = T(b)
	}
}

func (c *codec) str(p *string) { blob(c, p) }

// list moves a slice's length and then each element through elem. Decoding
// (into a fresh message) grows the slice as elements parse, never ahead.
func list[T any](c *codec, p *[]T, elem func(*T)) {
	n := c.count(len(*p))
	for i := 0; i < n && c.err == nil; i++ {
		if !c.enc {
			*p = append(*p, *new(T))
		}
		elem(&(*p)[i])
	}
}

// tensor moves a presence byte and then the tensor's stream encoding — out
// of the tensor's own memory when sending, straight into the destination's
// when receiving.
func (c *codec) tensor(p **tensor.Tensor) {
	present := *p != nil
	if c.flag(&present); !present || c.err != nil {
		return
	}
	if c.enc {
		buf, raw, err := (*p).AppendEncoding(c.buf)
		if c.buf = buf; err != nil {
			c.fail("%v", err)
		} else if len(raw) > 0 {
			c.cuts = append(c.cuts, cut{len(buf), raw})
		}
		return
	}
	t, n, err := tensor.ReadFromLimit(c.r, int64(c.rem))
	*p, c.rem, c.err = t, c.rem-int(n), err
}

func (m *RegisterGraphReq) wire(c *codec) {
	blob(c, &m.GraphBytes)
	list(c, &m.Feeds, c.str)
	list(c, &m.Fetches, c.str)
	list(c, &m.Targets, c.str)
}
func (m *RegisterGraphResp) wire(c *codec) { c.str(&m.Handle) }
func (m *RunGraphReq) wire(c *codec) {
	c.str(&m.Handle)
	num(c, &m.StepID)
	list(c, &m.Feeds, c.tensor)
}
func (m *RunGraphResp) wire(c *codec)  { list(c, &m.Fetches, c.tensor) }
func (m *RecvTensorReq) wire(c *codec) { c.str(&m.Key) }
func (m *RecvTensorResp) wire(c *codec) {
	c.tensor(&m.Tensor)
	c.flag(&m.Dead)
}
func (m *AbortStepReq) wire(c *codec) { num(c, &m.StepID) }
func (m *SaveShardReq) wire(c *codec) {
	c.str(&m.Prefix)
	num(c, &m.Step)
	num(c, &m.Keep)
}
func (m *SaveShardResp) wire(c *codec) {
	c.str(&m.Path)
	num(c, &m.Saved)
}
func (m *PushGradientsReq) wire(c *codec) {
	c.str(&m.Origin)
	num(c, &m.Round)
	num(c, &m.NumFresh)
	r := &m.Rule
	c.str(&r.Algo)
	for _, p := range []*float64{&r.LearningRate, &r.Decay, &r.InitialAccum, &r.Beta1, &r.Beta2, &r.Rho, &r.Epsilon} {
		c.f64(p)
	}
	list(c, &m.Grads, func(g *GradientPush) {
		c.str(&g.Name)
		c.tensor(&g.Dense)
		c.tensor(&g.Indices)
		c.tensor(&g.Values)
	})
	c.str(&m.StepName)
}
func (m *PushGradientsResp) wire(c *codec) {
	num(c, &m.Round)
	c.flag(&m.Applied)
}
func (m *HeartbeatReq) wire(*codec) {}
func (m *HeartbeatResp) wire(c *codec) {
	c.str(&m.Task)
	num(c, &m.Incarnation)
}

// noReply is AbortStep's (empty) response; errorText the body of a reply
// that carries flagError.
type noReply struct{}
type errorText string

func (*noReply) wire(*codec)       {}
func (m *errorText) wire(c *codec) { blob(c, m) }

var encoders = sync.Pool{New: func() any { return &codec{enc: true} }}

// encodeFrame builds a frame in a pooled encoder; send writes and releases
// it. A frame that cannot go out (a field that does not serialize, a length
// over maxFrame) is refused here, before any byte of it is on the wire.
func encodeFrame(id uint64, method, flags uint8, body Message) (*codec, error) {
	c := encoders.Get().(*codec)
	c.buf = binary.LittleEndian.AppendUint64(append(c.buf[:0], 0, 0, 0, 0), id)
	c.buf = append(c.buf, method, flags)
	body.wire(c)
	size := len(c.buf) - 4
	for _, k := range c.cuts {
		size += len(k.raw)
	}
	if size > maxFrame {
		c.fail("%d-byte frame exceeds the %d-byte limit", size, maxFrame)
	}
	if err := c.err; err != nil {
		c.release()
		return nil, err
	}
	binary.LittleEndian.PutUint32(c.buf, uint32(size))
	return c, nil
}

// send writes the frame with one gathered write — the small fields from buf,
// each cut payload from the tensor's own memory — and releases the encoder.
func (c *codec) send(w io.Writer) error {
	at := 0
	for _, k := range c.cuts {
		c.iov = append(c.iov, c.buf[at:k.at], k.raw)
		at = k.at
	}
	c.iov = append(c.iov, c.buf[at:])
	iov := c.iov // WriteTo consumes the slice it is called on
	_, err := iov.WriteTo(w)
	c.release()
	return err
}

func (c *codec) release() {
	clear(c.cuts) // drop the references into tensors
	clear(c.iov)
	c.cuts, c.iov, c.err = c.cuts[:0], c.iov[:0], nil
	encoders.Put(c)
}

// frameHeader is a frame's fixed part; rem is the length of its body.
type frameHeader struct {
	id            uint64
	method, flags uint8
	rem           int
}

// readHeader reads the next frame's header. An error means the stream
// cannot be followed any further: it ended, or the length prefix is outside
// [frameFixed, maxFrame].
func readHeader(br *bufio.Reader) (h frameHeader, err error) {
	b, err := br.Peek(4 + frameFixed)
	if err != nil {
		return h, err
	}
	size := binary.LittleEndian.Uint32(b)
	if size < frameFixed || uint64(size) > uint64(maxFrame) {
		return h, fmt.Errorf("distributed: frame length %d outside [%d, %d]", size, frameFixed, maxFrame)
	}
	h = frameHeader{binary.LittleEndian.Uint64(b[4:]), b[12], b[13], int(size) - frameFixed}
	_, err = br.Discard(len(b))
	return h, err
}

// readBody parses h's body into m (nil: nobody wants it, skip it undecoded)
// and consumes the frame to its end whatever the body held, so the stream
// stays in step. bad reports a body that did not parse as m; err a stream
// that failed.
func (c *codec) readBody(h frameHeader, m Message) (bad, err error) {
	c.rem, c.err = h.rem, nil
	if m != nil {
		if m.wire(c); c.err == nil && c.rem > 0 {
			c.fail("%d bytes trail the body", c.rem)
		}
	}
	_, err = c.r.Discard(c.rem)
	return c.err, err
}
