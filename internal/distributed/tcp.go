package distributed

import (
	"encoding/gob"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/device"
)

// The TCP transport speaks a minimal multiplexed RPC: each request carries
// a client-chosen ID; the server answers out of order, so a long-blocking
// RecvTensor does not head-of-line-block RunGraph calls on the same
// connection. This is the "gRPC over TCP" slot of the layered architecture
// in Figure 5.

type rpcRequest struct {
	ID     uint64
	Method string
	Reg    *RegisterGraphReq
	Run    *RunGraphReq
	Recv   *RecvTensorReq
	Abort  *AbortStepReq
	Push   *PushGradientsReq
	Save   *SaveShardReq
	HB     *HeartbeatReq
}

type rpcResponse struct {
	ID   uint64
	Err  string
	Reg  *RegisterGraphResp
	Run  *RunGraphResp
	Recv *RecvTensorResp
	Push *PushGradientsResp
	Save *SaveShardResp
	HB   *HeartbeatResp
}

// Server exposes a Worker over TCP.
type Server struct {
	worker   *Worker
	listener net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]bool
	closed   atomic.Bool
	wg       sync.WaitGroup
}

// Serve starts a server for the worker on addr ("host:port", ":0" for an
// ephemeral port). It returns once the listener is ready.
func Serve(worker *Worker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	s := &Server{worker: worker, listener: ln, conns: map[net.Conn]bool{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops the server and its connections, cancels the worker's running
// steps, and waits for every in-flight request handler to return.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.worker.AbortAll()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	var encMu sync.Mutex
	connDone := make(chan struct{})
	defer close(connDone)
	for {
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		// Handle each request on its own goroutine so blocking
		// RecvTensor calls do not stall the connection. Dispatches join
		// s.wg so Close does not return while a handler still runs; the
		// Add is safe because serveConn itself holds a wg slot until the
		// decode loop exits.
		s.wg.Add(1)
		go func(req rpcRequest) {
			defer s.wg.Done()
			resp := s.dispatch(&req, connDone)
			encMu.Lock()
			defer encMu.Unlock()
			_ = enc.Encode(resp)
		}(req)
	}
}

// hasBody reports whether the frame carries the request its method names. A
// frame is untrusted input: one whose body is absent, or sits in another
// method's field, must not reach the worker as a nil request.
func (req *rpcRequest) hasBody() bool {
	switch req.Method {
	case "RegisterGraph":
		return req.Reg != nil
	case "RunGraph":
		return req.Run != nil
	case "RecvTensor":
		return req.Recv != nil
	case "AbortStep":
		return req.Abort != nil
	case "PushGradients":
		return req.Push != nil
	case "SaveShard":
		return req.Save != nil
	case "Heartbeat":
		return req.HB != nil
	}
	return true // dispatch rejects the unknown method itself
}

func (s *Server) dispatch(req *rpcRequest, connDone <-chan struct{}) *rpcResponse {
	resp := &rpcResponse{ID: req.ID}
	if !req.hasBody() {
		resp.Err = fmt.Sprintf("distributed: malformed %s frame: no request body", req.Method)
		return resp
	}
	var err error
	switch req.Method {
	case "RegisterGraph":
		resp.Reg, err = s.worker.RegisterGraph(req.Reg)
	case "RunGraph":
		resp.Run, err = s.worker.RunGraph(req.Run)
	case "RecvTensor":
		resp.Recv, err = s.worker.RecvTensor(req.Recv, connDone)
	case "AbortStep":
		err = s.worker.AbortStep(req.Abort)
	case "PushGradients":
		// A push blocks until its round applies; the connection's lifetime
		// bounds the wait, like RecvTensor.
		resp.Push, err = s.worker.PushGradients(req.Push, connDone)
	case "SaveShard":
		resp.Save, err = s.worker.SaveShard(req.Save)
	case "Heartbeat":
		resp.HB, err = s.worker.Heartbeat(req.HB)
	default:
		err = fmt.Errorf("distributed: unknown method %q", req.Method)
	}
	if err != nil {
		resp.Err = err.Error()
	}
	return resp
}

// Client is the TCP transport to one remote task.
type Client struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder

	encMu   sync.Mutex
	nextID  atomic.Uint64
	mu      sync.Mutex
	pending map[uint64]chan *rpcResponse
	readErr error
	closed  bool
}

// Dial connects to a worker server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distributed: %w: dialing %s: %v", ErrUnavailable, addr, err)
	}
	c := &Client{
		conn:    conn,
		enc:     gob.NewEncoder(conn),
		dec:     gob.NewDecoder(conn),
		pending: map[uint64]chan *rpcResponse{},
	}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	for {
		var resp rpcResponse
		if err := c.dec.Decode(&resp); err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- &resp
		}
	}
}

func (c *Client) call(req *rpcRequest, abort <-chan struct{}) (*rpcResponse, error) {
	req.ID = c.nextID.Add(1)
	ch := make(chan *rpcResponse, 1)
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			return nil, fmt.Errorf("distributed: %w: client closed", ErrUnavailable)
		}
		return nil, fmt.Errorf("distributed: %w: %v", ErrUnavailable, err)
	}
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.encMu.Lock()
	err := c.enc.Encode(req)
	c.encMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("distributed: %w: sending %s: %v", ErrUnavailable, req.Method, err)
	}
	if abort == nil {
		abort = make(chan struct{}) // never fires
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("distributed: %w: connection lost during %s", ErrUnavailable, req.Method)
		}
		if resp.Err != "" {
			return nil, fmt.Errorf("%s", resp.Err)
		}
		return resp, nil
	case <-abort:
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("distributed: %s aborted", req.Method)
	}
}

// Err reports the client's terminal transport error: non-nil once the read
// loop has failed or Close was called. TCPResolver uses it to evict dead
// cached clients and redial after a task restart.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("distributed: %w: client closed", ErrUnavailable)
	}
	if c.readErr != nil {
		return fmt.Errorf("distributed: %w: %v", ErrUnavailable, c.readErr)
	}
	return nil
}

// RegisterGraph implements Transport.
func (c *Client) RegisterGraph(req *RegisterGraphReq) (*RegisterGraphResp, error) {
	resp, err := c.call(&rpcRequest{Method: "RegisterGraph", Reg: req}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Reg, nil
}

// RunGraph implements Transport.
func (c *Client) RunGraph(req *RunGraphReq) (*RunGraphResp, error) {
	resp, err := c.call(&rpcRequest{Method: "RunGraph", Run: req}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Run, nil
}

// RecvTensor implements Transport.
func (c *Client) RecvTensor(req *RecvTensorReq, abort <-chan struct{}) (*RecvTensorResp, error) {
	resp, err := c.call(&rpcRequest{Method: "RecvTensor", Recv: req}, abort)
	if err != nil {
		return nil, err
	}
	return resp.Recv, nil
}

// AbortStep implements Transport.
func (c *Client) AbortStep(req *AbortStepReq) error {
	_, err := c.call(&rpcRequest{Method: "AbortStep", Abort: req}, nil)
	return err
}

// PushGradients implements Transport.
func (c *Client) PushGradients(req *PushGradientsReq, abort <-chan struct{}) (*PushGradientsResp, error) {
	resp, err := c.call(&rpcRequest{Method: "PushGradients", Push: req}, abort)
	if err != nil {
		return nil, err
	}
	return resp.Push, nil
}

// SaveShard implements Transport.
func (c *Client) SaveShard(req *SaveShardReq) (*SaveShardResp, error) {
	resp, err := c.call(&rpcRequest{Method: "SaveShard", Save: req}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Save, nil
}

// Heartbeat implements Transport.
func (c *Client) Heartbeat(req *HeartbeatReq) (*HeartbeatResp, error) {
	resp, err := c.call(&rpcRequest{Method: "Heartbeat", HB: req}, nil)
	if err != nil {
		return nil, err
	}
	return resp.HB, nil
}

// Close implements Transport.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

// ParseTask splits a "/job:<name>/task:<index>" task name strictly: the
// index must be a plain non-negative decimal number (no trailing garbage)
// and the name must not carry a device suffix. A missing "/task:" component
// means task 0; an explicit negative index is malformed, not task 0.
func ParseTask(task string) (job string, index int, err error) {
	spec, perr := device.ParseSpec(task)
	if perr != nil || spec.Job == "" || spec.Type != "" || spec.ID >= 0 {
		return "", 0, fmt.Errorf("distributed: malformed task %q", task)
	}
	if spec.Task < 0 {
		if strings.Contains(task, "task:") || strings.Contains(task, "replica:") {
			return "", 0, fmt.Errorf("distributed: malformed task %q", task)
		}
		return spec.Job, 0, nil
	}
	return spec.Job, spec.Task, nil
}

// TCPResolver resolves tasks to cached TCP clients using the cluster spec's
// addresses (the name-service role of §4.3). A cached client whose
// connection has died is evicted and redialed — with capped exponential
// backoff plus jitter between attempts, so a dead task is not hammered by
// every step retry — and a restarted task becomes reachable again through
// the same resolver.
func TCPResolver(spec ClusterSpec) Resolver {
	cache := newClientCache(nil)
	return func(task string) (Transport, error) {
		job, idx, err := ParseTask(task)
		if err != nil {
			return nil, err
		}
		addr, err := spec.Address(job, idx)
		if err != nil {
			return nil, err
		}
		return cache.get(task, addr)
	}
}
