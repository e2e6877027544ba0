package distributed

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// frameBytes flattens the frame encodeFrame builds, as send gathers it.
func frameBytes(t testing.TB, id uint64, method, flags uint8, m Message) []byte {
	t.Helper()
	f, err := encodeFrame(id, method, flags, m)
	if err != nil {
		t.Fatalf("encoding %T: %v", m, err)
	}
	var buf bytes.Buffer
	if err := send(f, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parseFrame reads one frame from data into m.
func parseFrame(data []byte, m Message) (h frameHeader, bad, err error) {
	br := bufio.NewReader(bytes.NewReader(data))
	if h, err = readHeader(br); err != nil {
		return h, nil, err
	}
	bad, err = readBody(br, h, m)
	return h, bad, err
}

// sameBits compares two messages field by field, floats and tensor payloads
// by their bits (NaN payloads and −0 must survive), nil and empty slices as
// equal (the wire has one encoding for both).
func sameBits(a, b reflect.Value) error {
	if ta, ok := a.Interface().(*tensor.Tensor); ok {
		tb := b.Interface().(*tensor.Tensor)
		if ta == nil || tb == nil {
			if ta != tb {
				return fmt.Errorf("tensor %v vs %v", ta, tb)
			}
			return nil
		}
		var ea, eb bytes.Buffer
		ta.WriteTo(&ea)
		tb.WriteTo(&eb)
		if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
			return fmt.Errorf("tensor %v vs %v", ta, tb)
		}
		return nil
	}
	switch a.Kind() {
	case reflect.Pointer:
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := sameBits(a.Field(i), b.Field(i)); err != nil {
				return fmt.Errorf("%s: %w", a.Type().Field(i).Name, err)
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Errorf("%d vs %d elements", a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := sameBits(a.Index(i), b.Index(i)); err != nil {
				return fmt.Errorf("[%d]: %w", i, err)
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Errorf("%v vs %v", a, b)
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Errorf("%v vs %v", a, b)
		}
	}
	return nil
}

// wireTensors covers every dtype × rank 0–4 × empty / scalar, values chosen
// to be lost by anything but a bit-exact encoding, and one payload long
// enough to leave from the tensor's own memory rather than the header slice.
func wireTensors() []*tensor.Tensor {
	nan32, nan64 := math.Float32frombits(0x7fc12345), math.Float64frombits(0xfff8000000abcdef)
	negZero := math.Copysign(0, -1)
	var out []*tensor.Tensor
	for _, shape := range []tensor.Shape{{}, {3}, {0}, {2, 2}, {2, 0, 3}, {1, 2, 2}, {2, 1, 1, 2}, {700}} {
		n := shape.NumElements()
		f32, f64 := make([]float32, n), make([]float64, n)
		i32, i64 := make([]int32, n), make([]int64, n)
		bs, ss := make([]bool, n), make([]string, n)
		for i := 0; i < n; i++ {
			f32[i] = []float32{nan32, float32(negZero), float32(i) + 0.5}[i%3]
			f64[i] = []float64{nan64, negZero, float64(i) / 7}[i%3]
			i32[i], i64[i] = math.MinInt32+int32(i), math.MaxInt64-int64(i)
			bs[i] = i%2 == 0
			ss[i] = []string{"", "\xff\xc0 not utf-8 \x00", "plain"}[i%3]
		}
		out = append(out, tensor.FromFloat32s(shape, f32), tensor.FromFloat64s(shape, f64), tensor.FromInt32s(shape, i32),
			tensor.FromInt64s(shape, i64), tensor.FromBools(shape, bs), tensor.FromStrings(shape, ss))
	}
	return out
}

// wireMessages returns every request and response type, by method id, in
// enough variants to exercise each field: zero values, nil tensors, Dead,
// sparse and dense pushes, and an UpdateRule with every field set.
func wireMessages(t testing.TB) map[uint8][]Message {
	ts := wireTensors()
	var rule UpdateRule
	for i, rv := 0, reflect.ValueOf(&rule).Elem(); i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("adam")
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(0x7ff8000000000100 + uint64(i))) // a distinct NaN payload per field
		default:
			t.Fatalf("UpdateRule.%s: the wire codec and this test know only string and float64 fields", rv.Type().Field(i).Name)
		}
	}
	msgs := map[uint8][]Message{
		mRegisterGraph: {&RegisterGraphReq{}, &RegisterGraphResp{}, &RegisterGraphResp{Handle: "/job:ps/task:0/g1"},
			&RegisterGraphReq{GraphBytes: bytes.Repeat([]byte{0, 0xff, 7}, 400), Feeds: []string{"a:0", ""}, Fetches: []string{"b:1"}, Targets: []string{"t", "\xfe"}}},
		mRunGraph: {&RunGraphReq{}, &RunGraphResp{}, &RunGraphReq{Handle: "h", StepID: math.MinInt64, Feeds: append(ts, nil)},
			&RunGraphResp{Fetches: append([]*tensor.Tensor{nil}, ts...)}},
		mRecvTensor:    {&RecvTensorReq{}, &RecvTensorReq{Key: "step 3;/job:a/task:0/device:CPU:0;/job:b/task:1/device:CPU:0;x"}, &RecvTensorResp{}, &RecvTensorResp{Dead: true}},
		mAbortStep:     {&AbortStepReq{}, &AbortStepReq{StepID: -7}, &noReply{}},
		mSaveShard:     {&SaveShardReq{}, &SaveShardReq{Prefix: "/tmp/ck\xff", Step: 1 << 40, Keep: -3}, &SaveShardResp{}, &SaveShardResp{Path: "p-12", Saved: math.MaxInt32}},
		mHeartbeat:     {&HeartbeatReq{}, &HeartbeatResp{}, &HeartbeatResp{Task: "/job:ps/task:1", Incarnation: 9}},
		mPushGradients: {&PushGradientsReq{}, &PushGradientsResp{}, &PushGradientsResp{Round: 5, Applied: true}},
	}
	for _, x := range ts {
		msgs[mRecvTensor] = append(msgs[mRecvTensor], &RecvTensorResp{Tensor: x})
		msgs[mPushGradients] = append(msgs[mPushGradients], &PushGradientsReq{
			Origin: "/job:worker/task:1", Round: 3, NumFresh: 2, Rule: rule, StepName: "global_step",
			Grads: []GradientPush{{Name: "dense", Dense: x}, {Name: "sparse", Indices: ts[2], Values: x}, {Name: "none"}},
		})
	}
	return msgs
}

// TestWireRoundTrip: every message goes encode → decode and comes back equal
// by bits, consuming exactly its frame; chopping the frame anywhere is an
// error, never a panic and never a shorter message.
func TestWireRoundTrip(t *testing.T) {
	for method, msgs := range wireMessages(t) {
		for i, m := range msgs {
			data := frameBytes(t, uint64(i)<<40|7, method, 0, m)
			back := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)
			h, bad, err := parseFrame(data, back)
			if bad != nil || err != nil {
				t.Fatalf("%T #%d: decoding its own encoding: %v / %v", m, i, bad, err)
			}
			if h.id != uint64(i)<<40|7 || h.method != method || h.flags != 0 || h.rem != len(data)-4-frameFixed {
				t.Errorf("%T #%d: header came back as %+v", m, i, h)
			}
			if err := sameBits(reflect.ValueOf(m), reflect.ValueOf(back)); err != nil {
				t.Errorf("%T #%d changed on the wire: %v", m, i, err)
			}
			if again := frameBytes(t, uint64(i)<<40|7, method, 0, back); !bytes.Equal(again, data) {
				t.Errorf("%T #%d: the decoded message encodes to different bytes", m, i)
			}
			if len(data) > 4096 {
				continue // the truncation sweep is quadratic; the small variants cover every field kind
			}
			for cut := 0; cut < len(data); cut++ {
				chopped := reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message)
				if _, bad, err := parseFrame(data[:cut], chopped); bad == nil && err == nil {
					t.Fatalf("%T #%d: %d of %d bytes decoded without error", m, i, cut, len(data))
				}
				// The same bytes under a length prefix that ends there: the body is
				// short for its message, but the frame is whole and the stream in step.
				if cut >= 4+frameFixed {
					short := append([]byte(nil), data[:cut]...)
					binary.LittleEndian.PutUint32(short, uint32(cut-4))
					_, bad, err := parseFrame(short, reflect.New(reflect.TypeOf(m).Elem()).Interface().(Message))
					if bad == nil || err != nil {
						t.Fatalf("%T #%d: body cut to %d bytes: bad=%v err=%v, want a body error and a live stream", m, i, cut, bad, err)
					}
				}
			}
		}
	}
}

// TestMessageBoolIsZeroOrOne: unlike a Bool tensor's payload, a message's
// own bool has one encoding per value; anything else is a malformed body.
func TestMessageBoolIsZeroOrOne(t *testing.T) {
	body := append(u64(5), 2) // PushGradientsResp{Round: 5, Applied: <byte 2>}
	_, bad, err := parseFrame(rawFrame(uint32(frameFixed+len(body)), 1, mPushGradients, 0, body), new(PushGradientsResp))
	if bad == nil || err != nil {
		t.Errorf("bool byte 2: bad=%v err=%v; want a body error on a live stream", bad, err)
	}
}

// TestFrameRefusedBeforeTheWire: a message that cannot be framed — over
// maxFrame, or holding a tensor that does not serialize — is an error from
// encodeFrame, with nothing written.
func TestFrameRefusedBeforeTheWire(t *testing.T) {
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 4096
	big := &RecvTensorResp{Tensor: tensor.New(tensor.Float32, tensor.Shape{2000})}
	if _, err := encodeFrame(1, mRecvTensor, 0, big); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("8 KB frame under a 4 KB limit: %v", err)
	}
	if _, err := encodeFrame(1, mRecvTensor, 0, &RecvTensorResp{Tensor: new(tensor.Tensor)}); err == nil {
		t.Error("a tensor of invalid dtype was framed")
	}
	// The limit is inclusive and counts everything after the length prefix.
	fits := &RecvTensorResp{Tensor: tensor.New(tensor.Float32, tensor.Shape{(4096 - frameFixed - 1 - 9 - 1) / 4})}
	data := frameBytes(t, 1, mRecvTensor, 0, fits)
	if len(data)-4 > maxFrame || len(data)-4 < maxFrame-3 {
		t.Fatalf("frame of %d bytes does not sit at the %d limit", len(data)-4, maxFrame)
	}
	if _, bad, err := parseFrame(data, new(RecvTensorResp)); bad != nil || err != nil {
		t.Errorf("a frame at the limit was refused: %v / %v", bad, err)
	}
}

// rawConn is a hand-driven peer: it speaks bytes, not the Client.
type rawConn struct {
	t *testing.T
	net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return &rawConn{t, conn, bufio.NewReader(conn)}
}

func (c *rawConn) send(b ...[]byte) {
	c.t.Helper()
	if _, err := c.Write(bytes.Join(b, nil)); err != nil {
		c.t.Fatal(err)
	}
}

// reply reads the next frame and returns its header and, for an error
// frame, the text.
func (c *rawConn) reply(into Message) (frameHeader, string) {
	c.t.Helper()
	h, err := readHeader(c.br)
	if err != nil {
		c.t.Fatalf("reading a reply: %v", err)
	}
	var text errorText
	if h.flags&flagError != 0 {
		into = &text
	}
	if bad, err := readBody(c.br, h, into); bad != nil || err != nil {
		c.t.Fatalf("reading a reply body: %v / %v", bad, err)
	}
	return h, string(text)
}

// dropped asserts the server hung up without sending anything more.
func (c *rawConn) dropped(why string) {
	c.t.Helper()
	if b, err := c.br.ReadByte(); err != io.EOF && !errors.Is(err, net.ErrClosed) && !strings.Contains(fmt.Sprint(err), "reset") {
		c.t.Errorf("%s: read %#x, %v; want the connection dropped", why, b, err)
	}
}

// rawFrame builds a frame by hand: the length prefix is whatever the caller
// says, not what the body is.
func rawFrame(length uint32, id uint64, method, flags uint8, body ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, length)
	b = binary.LittleEndian.AppendUint64(b, id)
	return append(append(b, method, flags), bytes.Join(body, nil)...)
}

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
func lenStr(s string) []byte {
	return append(u32(uint32(len(s))), s...)
}

// TestMalformedFrameDoesNotKillServer drives a live server with hostile
// bytes. Each case ends in an error frame for that call id (and the stream
// still in step: a Heartbeat on the same connection is answered) or in a
// dropped connection; never in a panic, and never in an allocation sized by
// what a frame merely claims. A well-behaved client is served throughout.
func TestMalformedFrameDoesNotKillServer(t *testing.T) {
	srv, err := Serve(NewWorker("ps", 0, nil), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	good, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	stillServing := func(after string) {
		t.Helper()
		if _, err := good.Heartbeat(&HeartbeatReq{}); err != nil {
			t.Fatalf("after %s the server stopped serving: %v", after, err)
		}
	}
	heartbeat := rawFrame(frameFixed, 99, mHeartbeat, 0)
	// 21 bytes that used to reach tensor.New unchecked.
	overflow := bytes.Join([][]byte{{byte(tensor.Float32)}, u32(4), u32(math.MaxUint32), u32(math.MaxUint32), u32(math.MaxUint32), u32(math.MaxUint32)}, nil)
	runGraph := func(tensorBytes ...[]byte) []byte { // RunGraphReq{Handle: "h", StepID: 1, Feeds: {one tensor}}
		body := bytes.Join(append([][]byte{lenStr("h"), u64(1), u32(1), {1}}, tensorBytes...), nil)
		return rawFrame(uint32(frameFixed+len(body)), 7, mRunGraph, 0, body)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	answered := map[string]struct {
		frame []byte
		want  string
	}{
		"unknown method id":     {rawFrame(frameFixed, 7, 200, 0), "unknown method"},
		"method id zero":        {rawFrame(frameFixed, 7, 0, 0), "method 0, "},
		"error flag on request": {rawFrame(frameFixed, 7, mHeartbeat, flagError), "flags 0x1"},
		"body shorter than its message": {rawFrame(frameFixed+6, 7, mRunGraph, 0, lenStr("h"), []byte{1}),
			"malformed frame (method 2,"},
		"string longer than the frame": {rawFrame(frameFixed+8, 7, mRecvTensor, 0, u32(1<<30), []byte("abcd")),
			"malformed frame (method 3,"},
		"bytes trail the body": {rawFrame(frameFixed+9, 7, mAbortStep, 0, u64(5), []byte{0}),
			"trail the body"},
		"tensor dims overflow": {runGraph(overflow), "malformed frame (method 2,"},
		"tensor payload larger than the frame remainder": {runGraph([]byte{byte(tensor.Float64)}, u32(1), u32(1<<20), make([]byte, 64)),
			"malformed frame (method 2,"},
		"slice count larger than the frame": {rawFrame(frameFixed+4+1+8+4, 7, mRunGraph, 0, lenStr("h"), u64(1), u32(math.MaxUint32)),
			"malformed frame (method 2,"},
		"tensor presence byte 2": {rawFrame(frameFixed+4+1+8+4+1, 7, mRunGraph, 0, lenStr("h"), u64(1), u32(1), []byte{2}),
			"byte 2 where 0 or 1"},
		// A Bool payload byte of 2 is a well-formed frame: it reads as true,
		// and the call fails only because nothing is registered under "h".
		"bool tensor byte 2": {runGraph([]byte{byte(tensor.Bool)}, u32(1), u32(2), []byte{2, 0}), "unknown graph handle"},
	}
	for name, tc := range answered {
		c := dialRaw(t, srv.Addr())
		c.send([]byte(preface), tc.frame, heartbeat)
		// Two replies, in either order (a frame that parses is served on its
		// own goroutine): the error for call 7, and the Heartbeat behind it,
		// which shows the stream is still in step.
		var hb HeartbeatResp
		texts := map[uint64]string{}
		for i := 0; i < 2; i++ {
			h, text := c.reply(&hb)
			if h.flags&flagError == 0 {
				text = "ok"
			}
			texts[h.id] = text
		}
		if !strings.Contains(texts[7], tc.want) || texts[99] != "ok" || hb.Task != "/job:ps/task:0" {
			t.Errorf("%s: replies %q, heartbeat %+v; want an error frame for call 7 mentioning %q and call 99 answered", name, texts, hb, tc.want)
		}
		c.Close()
		stillServing(name)
	}

	droppedCases := map[string][]byte{
		"bad preface":                    []byte("GET / HTTP/1.1\r\n\r\n"),
		"preface of another version":     []byte("TFGORPC2"),
		"length prefix above the max":    append([]byte(preface), rawFrame(uint32(maxFrame)+1, 7, mHeartbeat, 0)...),
		"length prefix of 4 GiB":         append([]byte(preface), rawFrame(math.MaxUint32, 7, mHeartbeat, 0)...),
		"length prefix below the header": append([]byte(preface), rawFrame(frameFixed-1, 7, mHeartbeat, 0)...),
		"length prefix of zero":          append([]byte(preface), u32(0)...),
	}
	for name, stream := range droppedCases {
		c := dialRaw(t, srv.Addr())
		c.send(stream, heartbeat)
		c.dropped(name)
		stillServing(name)
	}

	// A frame that stops arriving, then a closed connection.
	c := dialRaw(t, srv.Addr())
	c.send([]byte(preface), rawFrame(frameFixed+100, 7, mRunGraph, 0, lenStr("h"), u64(1)))
	c.Close()
	stillServing("a frame cut short by a closed connection")

	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("the hostile frames made the process allocate %d bytes", got)
	}
}

// TestClientSkipsRepliesNobodyWaitsFor: a reply whose id matches no pending
// call — never issued, or abandoned by its caller — is discarded undecoded
// (here it is not even decodable) and the next reply still lands.
func TestClientSkipsRepliesNobodyWaitsFor(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		br.Discard(len(preface))
		h, err := readHeader(br)
		if err != nil {
			return
		}
		br.Discard(h.rem)
		garbage := bytes.Repeat([]byte{0xff}, 5000)
		conn.Write(bytes.Join([][]byte{
			rawFrame(uint32(frameFixed+len(garbage)), 12345, mRunGraph, 0, garbage),
			frameBytes(t, h.id, h.method, 0, &HeartbeatResp{Task: "fake", Incarnation: 4})}, nil))
		io.Copy(io.Discard, br)
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.Heartbeat(&HeartbeatReq{})
	if err != nil || resp.Task != "fake" || resp.Incarnation != 4 {
		t.Fatalf("Heartbeat behind an unclaimed reply = %+v, %v", resp, err)
	}
}

// fillGraph registers, on w, a subgraph whose only fetch is a float32
// vector of n elements made on the spot — a small request with a large reply.
func fillGraph(t *testing.T, tr Transport, n int32) string {
	t.Helper()
	g := graph.New()
	dims := buildNode(t, g, "Const", nil, graph.NodeArgs{Name: "dims", Attrs: map[string]any{"value": tensor.FromInt32s(tensor.Shape{1}, []int32{n})}})
	val := buildNode(t, g, "Const", nil, graph.NodeArgs{Name: "val", Attrs: map[string]any{"value": tensor.Scalar(3)}})
	buildNode(t, g, "Fill", []graph.Endpoint{dims.Out(0), val.Out(0)}, graph.NodeArgs{Name: "fill"})
	def, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := tr.RegisterGraph(&RegisterGraphReq{GraphBytes: def, Fetches: []string{"fill:0"}})
	if err != nil {
		t.Fatal(err)
	}
	return reg.Handle
}

// TestUnwritableReplyDoesNotStrandCaller: RunGraph, RegisterGraph, SaveShard,
// AbortStep and Heartbeat have no abort channel, so a reply the server cannot
// frame must come back as an error under the same call id, and a connection
// that dies with a reply half-written must fail every call pending on it
// with a retryable error.
func TestUnwritableReplyDoesNotStrandCaller(t *testing.T) {
	// Lowered before anything that reads it starts; restored (deferred
	// first, so run last) after all of it has stopped.
	defer func(old int) { maxFrame = old }(maxFrame)
	maxFrame = 64 << 10
	w := NewWorker("ps", 0, nil)
	srv, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.RunGraph(&RunGraphReq{Handle: fillGraph(t, c, 10_000), StepID: 1}); err != nil || resp.Fetches[0].NumElements() != 10_000 {
		t.Fatalf("a 40 KB reply under a 64 KB limit: %v, %v", resp, err)
	}
	handle := fillGraph(t, c, 100_000) // a 400 KB reply
	_, err = c.RunGraph(&RunGraphReq{Handle: handle, StepID: 2})
	if err == nil || !strings.Contains(err.Error(), "RunGraph reply") || !strings.Contains(err.Error(), "exceeds") || IsRetryable(err) {
		t.Fatalf("a reply over the frame limit came back as %v; want the server's framing error", err)
	}
	// A reply holding a tensor that does not serialize.
	key := "step 5;" + w.Device().Name() + ";/job:x/task:0/device:CPU:0;bad"
	if err := w.local.Send(key, ops.Value{Tensor: new(tensor.Tensor)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvTensor(&RecvTensorReq{Key: key}, nil); err == nil || !strings.Contains(err.Error(), "RecvTensor reply") {
		t.Fatalf("an unserialisable reply came back as %v", err)
	}
	// A request the client cannot frame fails that call alone.
	if _, err := c.RunGraph(&RunGraphReq{Handle: handle, StepID: 3, Feeds: []*tensor.Tensor{tensor.New(tensor.Float32, tensor.Shape{20_000})}}); err == nil || IsRetryable(err) {
		t.Fatalf("an 80 KB request under a 64 KB limit: %v", err)
	}
	if _, err := c.Heartbeat(&HeartbeatReq{}); err != nil {
		t.Fatalf("the connection did not survive the refused frames: %v", err)
	}

}

// TestDeadConnectionFailsPendingCalls: a peer that dies mid-reply — 20 bytes
// of a frame that promised 1000 — fails every call pending on the connection
// with a retryable error, abort channel or not.
func TestDeadConnectionFailsPendingCalls(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		br.Discard(len(preface))
		var ids []uint64
		for len(ids) < 2 { // wait until both calls are pending
			h, err := readHeader(br)
			if err != nil {
				return
			}
			br.Discard(h.rem)
			ids = append(ids, h.id)
		}
		conn.Write(rawFrame(1000, ids[0], mHeartbeat, 0, make([]byte, 6)))
	}()
	dying, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dying.Close()
	errs := make(chan error, 2)
	go func() { _, err := dying.Heartbeat(&HeartbeatReq{}); errs <- err }()
	go func() { errs <- dying.AbortStep(&AbortStepReq{StepID: 1}) }()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrUnavailable) || !IsRetryable(err) {
				t.Errorf("a call pending on a connection that died mid-frame returned %v; want ErrUnavailable", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a call without an abort channel is stranded on a dead connection")
		}
	}
	if dying.Err() == nil {
		t.Error("the client does not report its dead connection")
	}
}

// TestInFlightCapStopsTheReadLoop: a peer that parks handler after handler
// (RecvTensor for keys nobody will produce) gets maxInFlight of them and no
// more — the server stops reading that connection — while other connections
// are served and Close still returns.
func TestInFlightCapStopsTheReadLoop(t *testing.T) {
	w := NewWorker("ps", 0, nil)
	srv, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, srv.Addr())
	var frames []byte
	for i := 0; i < maxInFlight+64; i++ {
		frames = append(frames, frameBytes(t, uint64(i+1), mRecvTensor, 0, &RecvTensorReq{Key: fmt.Sprintf("step 1;a;b;never-%d", i)})...)
	}
	c.send([]byte(preface), frames)
	for deadline := time.Now().Add(10 * time.Second); w.LocalTensorCount() < maxInFlight; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d handlers parked", w.LocalTensorCount())
		}
	}
	time.Sleep(50 * time.Millisecond) // a 1025th handler would have started by now
	if got := w.LocalTensorCount(); got != maxInFlight {
		t.Errorf("%d handlers parked on one connection, cap is %d", got, maxInFlight)
	}
	other, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Heartbeat(&HeartbeatReq{}); err != nil {
		t.Errorf("a second connection is not served while the first sits at its cap: %v", err)
	}
	other.Close()
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung on a connection parked at its in-flight cap")
	}
}

// goroutinesSettleAt waits for the goroutine count to come back to base.
func goroutinesSettleAt(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before Serve/Dial:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestCloseJoinsWhatItStarted: Serve → Dial → calls, one parked in
// RecvTensor and one in PushGradients → Client.Close → Server.Close leaves
// the goroutine count where it started; both parked calls return.
func TestCloseJoinsWhatItStarted(t *testing.T) {
	base := runtime.NumGoroutine()
	for cycle := 0; cycle < 3; cycle++ {
		w := pushTestWorker(t)
		srv, err := Serve(w, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Heartbeat(&HeartbeatReq{}); err != nil {
			t.Fatal(err)
		}
		parked := make(chan error, 2)
		go func() {
			_, err := c.RecvTensor(&RecvTensorReq{Key: "step 1;a;b;never"}, nil)
			parked <- err
		}()
		go func() {
			_, err := c.PushGradients(sgdPush("/job:worker/task:0", 0, 2, 1, 1), nil)
			parked <- err
		}()
		waitContributions(t, w, 0, 1)
		for w.LocalTensorCount() == 0 {
			time.Sleep(time.Millisecond)
		}
		if err := c.Close(); err != nil {
			t.Errorf("Client.Close: %v", err)
		}
		for i := 0; i < 2; i++ {
			if err := <-parked; !errors.Is(err, ErrUnavailable) {
				t.Errorf("a call parked across Client.Close returned %v; want ErrUnavailable", err)
			}
		}
		if _, err := c.Heartbeat(&HeartbeatReq{}); !errors.Is(err, ErrUnavailable) {
			t.Errorf("a call on a closed client returned %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("Server.Close: %v", err)
		}
		goroutinesSettleAt(t, base)
	}
}

// TestSteadyStateAllocation pins the point of the frame format: moving one
// 2 MB float32 tensor across a loopback Serve/Dial pair allocates, sender
// and receiver together, the destination tensor and small change. (The gob
// transport this replaced measured 5.0 × the payload.)
func TestSteadyStateAllocation(t *testing.T) {
	w := NewWorker("ps", 0, nil)
	srv, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := tensor.NewRNG(1).Normal(tensor.Float32, tensor.Shape{8192, 64}, 0, 1)
	move := func(i int) {
		key := fmt.Sprintf("step %d;%s;/job:worker/task:0/device:CPU:0;emb", i, w.Device().Name())
		if err := w.local.Send(key, ops.Value{Tensor: payload}); err != nil {
			t.Fatal(err)
		}
		resp, err := c.RecvTensor(&RecvTensorReq{Key: key}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && !resp.Tensor.Equal(payload) {
			t.Fatal("the tensor changed on the wire")
		}
	}
	for i := 0; i < 5; i++ {
		move(i)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		move(100 + i)
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	ratio := perCall / float64(payload.ByteSize())
	t.Logf("%.0f bytes allocated per call for a %d-byte payload: %.3f×", perCall, payload.ByteSize(), ratio)
	if ratio > 1.25 {
		t.Errorf("moving a %d-byte tensor allocates %.2f× its size per call, want ≤ 1.25×", payload.ByteSize(), ratio)
	}
}

// FuzzRPCFrame feeds arbitrary bytes to the server side of the codec: the
// frame reader, then the body decoder of whatever method the frame names.
// The outcome is an error, or a message that encodes and decodes to itself.
func FuzzRPCFrame(f *testing.F) {
	// One well-formed request per method; the hostile seeds are the files
	// under testdata/fuzz/FuzzRPCFrame.
	sparse := sgdPush("/job:worker/task:1", 4, 2, 0, 0)
	sparse.Grads = []GradientPush{{Name: "emb", Indices: tensor.FromInt32s(tensor.Shape{2}, []int32{3, 1}), Values: tensor.New(tensor.Float64, tensor.Shape{2, 2})}}
	for _, seed := range []struct {
		method uint8
		req    Message
	}{
		{mRegisterGraph, &RegisterGraphReq{GraphBytes: []byte{1, 2, 3}, Feeds: []string{"a:0"}, Fetches: []string{"b:0", "c:1"}, Targets: []string{"t"}}},
		{mRunGraph, &RunGraphReq{Handle: "h", StepID: 3, Feeds: []*tensor.Tensor{tensor.Scalar(1), nil, tensor.FromStrings(tensor.Shape{2}, []string{"", "x"}), tensor.ScalarBool(true)}}},
		{mRecvTensor, &RecvTensorReq{Key: "step 1;a;b;c"}},
		{mAbortStep, &AbortStepReq{StepID: 9}},
		{mPushGradients, sgdPush("/job:worker/task:0", 1, 2, 3, 4)},
		{mPushGradients, sparse},
		{mSaveShard, &SaveShardReq{Prefix: "p", Step: 1, Keep: 2}},
		{mHeartbeat, &HeartbeatReq{}},
	} {
		f.Add(frameBytes(f, 1, seed.method, 0, seed.req))
	}
	// A frame may claim, and a tensor in it then allocate, up to maxFrame
	// whatever the input's real size: keep the fuzzer's processes small.
	old := maxFrame
	maxFrame = 1 << 20
	f.Cleanup(func() { maxFrame = old })
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			h, err := readHeader(br)
			if err != nil {
				return
			}
			if int(h.method) >= len(methods) || methods[h.method].newReq == nil {
				if _, err := readBody(br, h, nil); err != nil {
					return
				}
				continue
			}
			req := methods[h.method].newReq()
			bad, err := readBody(br, h, req)
			if err != nil {
				return
			}
			if bad != nil {
				continue
			}
			again := methods[h.method].newReq()
			if _, bad, err := parseFrame(frameBytes(t, h.id, h.method, 0, req), again); bad != nil || err != nil {
				t.Fatalf("%T decoded from the input does not survive its own encoding: %v / %v", req, bad, err)
			}
			if err := sameBits(reflect.ValueOf(req), reflect.ValueOf(again)); err != nil {
				t.Fatalf("%T changed across encode → decode: %v", req, err)
			}
		}
	})
}
