package main

import (
	"bytes"
	"encoding/gob"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/distributed"
	"repro/internal/tensor"
)

// The harness sees the distributed layer from outside by wrapping the
// public distributed.Resolver / Transport values it constructs itself: one
// wrapper on the resolver the masters use (master→task) and one on each
// task's own resolver (task→task, the RecvTensor path). With observation
// off a wrapped call costs one atomic load.

// wireMethods are the RPCs the per-layer metrics break out by name.
var wireMethods = []string{"RunGraph", "RecvTensor", "PushGradients"}

// wireCall is one observed Transport call.
type wireCall struct {
	method  string
	task    string // callee
	caller  string // "client" for the masters' resolver, else the calling task
	stepID  int64  // RunGraph / AbortStep / RecvTensor (parsed from the key); 0 otherwise
	origin  string // PushGradients: the pushing worker
	start   time.Time
	end     time.Time
	payload int64 // tensor bytes in request + response
	err     error
}

// wireMessage is a retained request/response pair, kept so its encoding
// cost can be measured in isolation after the run.
type wireMessage struct {
	method    string
	req, resp any
}

// wireRecorder collects what the wrapped transports observe.
type wireRecorder struct {
	observe atomic.Bool // record calls
	retain  atomic.Bool // also keep the messages themselves

	mu       sync.Mutex
	calls    []wireCall
	messages []wireMessage
}

func (r *wireRecorder) record(c wireCall, req, resp any) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	if r.retain.Load() && c.err == nil {
		r.messages = append(r.messages, wireMessage{c.method, req, resp})
	}
	r.mu.Unlock()
}

// take returns and clears what was recorded.
func (r *wireRecorder) take() ([]wireCall, []wireMessage) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, m := r.calls, r.messages
	r.calls, r.messages = nil, nil
	return c, m
}

// resolverWrap wraps a Resolver so every Transport it hands out is observed
// by rec, and remembers the transports so close can release their
// connections (TCPResolver has no Close of its own).
type resolverWrap struct {
	inner  distributed.Resolver
	caller string
	rec    *wireRecorder

	mu      sync.Mutex
	wrapped map[distributed.Transport]*observedTransport
}

func newResolverWrap(inner distributed.Resolver, caller string, rec *wireRecorder) *resolverWrap {
	return &resolverWrap{inner: inner, caller: caller, rec: rec,
		wrapped: map[distributed.Transport]*observedTransport{}}
}

func (w *resolverWrap) resolve(task string) (distributed.Transport, error) {
	tr, err := w.inner(task)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ot, ok := w.wrapped[tr]
	if !ok {
		ot = &observedTransport{Transport: tr, task: task, caller: w.caller, rec: w.rec}
		w.wrapped[tr] = ot
	}
	return ot, nil
}

// close closes every transport the resolver handed out.
func (w *resolverWrap) close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for tr := range w.wrapped {
		tr.Close() // error dropped: teardown of a loopback connection
	}
	w.wrapped = map[distributed.Transport]*observedTransport{}
}

// observedTransport forwards to the embedded Transport, timing and sizing
// the three hot RPCs (and RegisterGraph, for set-up accounting).
type observedTransport struct {
	distributed.Transport
	task, caller string
	rec          *wireRecorder
}

// observe runs one Transport call, recording it when observation is on. c
// carries what is known before the call; size reads the response's tensor
// bytes.
func observe[Resp any](t *observedTransport, c wireCall, req any, do func() (Resp, error), size func(Resp) int64) (Resp, error) {
	if !t.rec.observe.Load() {
		return do()
	}
	c.task, c.caller = t.task, t.caller
	c.start = time.Now()
	resp, err := do()
	c.end = time.Now()
	c.err = err
	if err == nil {
		c.payload += size(resp)
	}
	t.rec.record(c, req, resp)
	return resp, err
}

func (t *observedTransport) RegisterGraph(req *distributed.RegisterGraphReq) (*distributed.RegisterGraphResp, error) {
	return observe(t, wireCall{method: "RegisterGraph", payload: int64(len(req.GraphBytes))}, req,
		func() (*distributed.RegisterGraphResp, error) { return t.Transport.RegisterGraph(req) },
		func(*distributed.RegisterGraphResp) int64 { return 0 })
}

func (t *observedTransport) RunGraph(req *distributed.RunGraphReq) (*distributed.RunGraphResp, error) {
	return observe(t, wireCall{method: "RunGraph", stepID: req.StepID, payload: tensorBytes(req.Feeds...)}, req,
		func() (*distributed.RunGraphResp, error) { return t.Transport.RunGraph(req) },
		func(resp *distributed.RunGraphResp) int64 { return tensorBytes(resp.Fetches...) })
}

func (t *observedTransport) RecvTensor(req *distributed.RecvTensorReq, abort <-chan struct{}) (*distributed.RecvTensorResp, error) {
	return observe(t, wireCall{method: "RecvTensor", stepID: keyStepID(req.Key)}, req,
		func() (*distributed.RecvTensorResp, error) { return t.Transport.RecvTensor(req, abort) },
		func(resp *distributed.RecvTensorResp) int64 { return tensorBytes(resp.Tensor) })
}

func (t *observedTransport) PushGradients(req *distributed.PushGradientsReq, abort <-chan struct{}) (*distributed.PushGradientsResp, error) {
	var size int64
	for _, g := range req.Grads {
		size += tensorBytes(g.Dense, g.Indices, g.Values)
	}
	return observe(t, wireCall{method: "PushGradients", origin: req.Origin, payload: size}, req,
		func() (*distributed.PushGradientsResp, error) { return t.Transport.PushGradients(req, abort) },
		func(*distributed.PushGradientsResp) int64 { return 0 })
}

// tensorBytes sums the dense byte sizes of the non-nil tensors.
func tensorBytes(ts ...*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		if t != nil {
			n += int64(t.ByteSize())
		}
	}
	return n
}

// keyStepID parses the step ID out of a rendezvous key
// ("step N;srcDevice;dstDevice;name"); 0 if the key has another form.
func keyStepID(key string) int64 {
	rest, ok := strings.CutPrefix(key, "step ")
	if !ok {
		return 0
	}
	num, _, ok := strings.Cut(rest, ";")
	if !ok {
		return 0
	}
	id, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// wireRequest and wireResponse mirror the frames internal/distributed's TCP
// transport gob-encodes (tcp.go: rpcRequest / rpcResponse, unexported), so
// the sizes and times measured here are those of the real stream.
type wireRequest struct {
	ID     uint64
	Method string
	Run    *distributed.RunGraphReq
	Recv   *distributed.RecvTensorReq
	Push   *distributed.PushGradientsReq
}

type wireResponse struct {
	ID   uint64
	Err  string
	Run  *distributed.RunGraphResp
	Recv *distributed.RecvTensorResp
	Push *distributed.PushGradientsResp
}

func frame(id uint64, m wireMessage) (wireRequest, wireResponse) {
	req := wireRequest{ID: id, Method: m.method}
	resp := wireResponse{ID: id}
	switch m.method {
	case "RunGraph":
		req.Run, _ = m.req.(*distributed.RunGraphReq)
		resp.Run, _ = m.resp.(*distributed.RunGraphResp)
	case "RecvTensor":
		req.Recv, _ = m.req.(*distributed.RecvTensorReq)
		resp.Recv, _ = m.resp.(*distributed.RecvTensorResp)
	case "PushGradients":
		req.Push, _ = m.req.(*distributed.PushGradientsReq)
		resp.Push, _ = m.resp.(*distributed.PushGradientsResp)
	}
	return req, resp
}

// encodeInIsolation gob-encodes and decodes every retained message over one
// persistent stream (type descriptors sent once, as on a live connection)
// on the calling goroutine alone, and returns the bytes produced and the
// time the encoding and the decoding took.
func encodeInIsolation(msgs []wireMessage) (wireBytes int64, encode, decode time.Duration, err error) {
	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	enc := gob.NewEncoder(cw)
	dec := gob.NewDecoder(&buf)
	// Prime the stream with one frame per method so type descriptors are
	// not charged to the measured messages.
	seen := map[string]bool{}
	for _, m := range msgs {
		if seen[m.method] {
			continue
		}
		seen[m.method] = true
		req, resp := frame(0, m)
		var dreq wireRequest
		var dresp wireResponse
		for _, pair := range [][2]any{{&req, &dreq}, {&resp, &dresp}} {
			if err := enc.Encode(pair[0]); err != nil {
				return 0, 0, 0, err
			}
			if err := dec.Decode(pair[1]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	cw.n = 0
	for i, m := range msgs {
		req, resp := frame(uint64(i+1), m)
		t0 := time.Now()
		if err := enc.Encode(&req); err != nil {
			return 0, 0, 0, err
		}
		if err := enc.Encode(&resp); err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		var dreq wireRequest
		var dresp wireResponse
		if err := dec.Decode(&dreq); err != nil {
			return 0, 0, 0, err
		}
		if err := dec.Decode(&dresp); err != nil {
			return 0, 0, 0, err
		}
		encode += t1.Sub(t0)
		decode += time.Since(t1)
	}
	return cw.n, encode, decode, nil
}
