package distributed

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/wire"
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
// cluster.go and nothing else: wire lists its fields once, for the codec of
// internal/wire.
type Message interface{ wire(c *wire.Codec) }

func (m *RegisterGraphReq) wire(c *wire.Codec) {
	wire.Blob(c, &m.GraphBytes)
	wire.List(c, &m.Feeds, c.Str)
	wire.List(c, &m.Fetches, c.Str)
	wire.List(c, &m.Targets, c.Str)
}
func (m *RegisterGraphResp) wire(c *wire.Codec) { c.Str(&m.Handle) }
func (m *RunGraphReq) wire(c *wire.Codec) {
	c.Str(&m.Handle)
	wire.Num(c, &m.StepID)
	wire.List(c, &m.Feeds, c.OptTensor)
}
func (m *RunGraphResp) wire(c *wire.Codec)  { wire.List(c, &m.Fetches, c.OptTensor) }
func (m *RecvTensorReq) wire(c *wire.Codec) { c.Str(&m.Key) }
func (m *RecvTensorResp) wire(c *wire.Codec) {
	c.OptTensor(&m.Tensor)
	c.Flag(&m.Dead)
}
func (m *AbortStepReq) wire(c *wire.Codec) { wire.Num(c, &m.StepID) }
func (m *SaveShardReq) wire(c *wire.Codec) {
	c.Str(&m.Prefix)
	wire.Num(c, &m.Step)
	wire.Num(c, &m.Keep)
}
func (m *SaveShardResp) wire(c *wire.Codec) {
	c.Str(&m.Path)
	wire.Num(c, &m.Saved)
}
func (m *PushGradientsReq) wire(c *wire.Codec) {
	c.Str(&m.Origin)
	wire.Num(c, &m.Round)
	wire.Num(c, &m.NumFresh)
	r := &m.Rule
	c.Str(&r.Algo)
	for _, p := range []*float64{&r.LearningRate, &r.Decay, &r.InitialAccum, &r.Beta1, &r.Beta2, &r.Rho, &r.Epsilon} {
		c.F64(p)
	}
	wire.List(c, &m.Grads, func(g *GradientPush) {
		c.Str(&g.Name)
		c.OptTensor(&g.Dense)
		c.OptTensor(&g.Indices)
		c.OptTensor(&g.Values)
	})
	c.Str(&m.StepName)
}
func (m *PushGradientsResp) wire(c *wire.Codec) {
	wire.Num(c, &m.Round)
	c.Flag(&m.Applied)
}
func (m *HeartbeatReq) wire(*wire.Codec) {}
func (m *HeartbeatResp) wire(c *wire.Codec) {
	c.Str(&m.Task)
	wire.Num(c, &m.Incarnation)
}

// noReply is AbortStep's (empty) response; errorText the body of a reply
// that carries flagError.
type noReply struct{}
type errorText string

func (*noReply) wire(*wire.Codec)       {}
func (m *errorText) wire(c *wire.Codec) { wire.Blob(c, m) }

var encoders = sync.Pool{New: func() any { return wire.NewEncoder() }}

// encodeFrame builds a frame in a pooled encoder; send writes and releases
// it. A frame that cannot go out (a field that does not serialize, a length
// over maxFrame) is refused here, before any byte of it is on the wire.
func encodeFrame(id uint64, method, flags uint8, body Message) (*wire.Codec, error) {
	c := encoders.Get().(*wire.Codec)
	c.Uint(0, 4) // the length, once it is known
	c.Uint(id, 8)
	c.Uint(uint64(method), 1)
	c.Uint(uint64(flags), 1)
	body.wire(c)
	if size := c.Backfill(0); size > maxFrame {
		c.Fail("%d-byte frame exceeds the %d-byte limit", size, maxFrame)
	}
	if err := c.End(); err != nil {
		c.Reset()
		encoders.Put(c)
		return nil, err
	}
	return c, nil
}

// send writes the frame with one gathered write and releases the encoder.
func send(c *wire.Codec, w io.Writer) error {
	_, err := c.WriteTo(w)
	c.Reset()
	encoders.Put(c)
	return err
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
func readBody(br *bufio.Reader, h frameHeader, m Message) (bad, err error) {
	c := wire.NewDecoder(br, h.rem)
	if m != nil {
		m.wire(c)
		bad = c.End()
	}
	_, err = br.Discard(c.Left())
	return bad, err
}
