package distributed

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/wire"
)

// The TCP transport speaks a minimal multiplexed RPC over the frames of
// wire.go: each request carries a client-chosen ID; the server answers out
// of order, so a long-blocking RecvTensor does not head-of-line-block
// RunGraph calls on the same connection. This is the "gRPC over TCP" slot of
// the layered architecture in Figure 5.

// Server exposes a Worker over TCP.
type Server struct {
	worker   *Worker
	listener net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]bool
	closed   atomic.Bool
	done     chan struct{} // closed by Close
	wg       sync.WaitGroup
}

// Serve starts a server for the worker on addr ("host:port", ":0" for an
// ephemeral port). It returns once the listener is ready.
func Serve(worker *Worker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	s := &Server{worker: worker, listener: ln, conns: map[net.Conn]bool{}, done: make(chan struct{})}
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
	close(s.done)
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
	connDone := make(chan struct{})
	defer func() {
		close(connDone)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	if wire.NewDecoder(br, len(preface)).Magic(preface) != nil {
		return
	}
	// Every call gets a reply or its connection closed, never silence (five
	// of the seven methods have no abort channel): a response that cannot be
	// framed goes out as an error under the same call id, and a failed write
	// closes the connection, failing whatever the client has pending on it.
	var wmu sync.Mutex
	reply := func(h frameHeader, resp Message, err error) {
		var f *wire.Codec
		if err == nil {
			if f, err = encodeFrame(h.id, h.method, 0, resp); err != nil {
				err = fmt.Errorf("distributed: %s reply: %w", methods[h.method].name, err)
			}
		}
		if err != nil {
			text := errorText(err.Error())
			f, err = encodeFrame(h.id, h.method, flagError, &text)
		}
		wmu.Lock()
		defer wmu.Unlock()
		if err != nil || send(f, conn) != nil {
			conn.Close()
		}
	}
	inFlight := make(chan struct{}, maxInFlight)
	for {
		h, err := readHeader(br)
		if err != nil {
			return
		}
		var req Message
		if int(h.method) < len(methods) && methods[h.method].newReq != nil && h.flags == 0 {
			req = methods[h.method].newReq()
		}
		bad, err := readBody(br, h, req)
		if err != nil {
			return
		}
		if req == nil {
			bad = errors.New("unknown method or flags")
		}
		if bad != nil {
			reply(h, nil, fmt.Errorf("distributed: malformed frame (method %d, flags %#x): %v", h.method, h.flags, bad))
			continue
		}
		select {
		case inFlight <- struct{}{}:
		case <-s.done:
			return
		}
		// One goroutine per request, so a blocking RecvTensor does not stall
		// the connection. Handlers join s.wg so Close waits for them; the Add
		// is safe because serveConn holds a slot until the read loop exits.
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			resp, err := methods[h.method].serve(s.worker, req, connDone)
			reply(h, resp, err)
			<-inFlight
		}()
	}
}

// Client is the TCP transport to one remote task: a Caller, and through the
// stub around itself a Transport.
type Client struct {
	stub
	conn     net.Conn
	wmu      sync.Mutex // serializes frames onto conn
	nextID   atomic.Uint64
	readDone chan struct{} // closed when readLoop returns

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	dead    error // why no call can succeed any more: Close, or the read loop's end
}

// pendingCall is a call awaiting its reply: the read loop parses the reply
// into resp, then sends the outcome on done (buffered: it never waits).
type pendingCall struct {
	resp Message
	done chan error
}

// Dial connects to a worker server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err == nil {
		if _, err = conn.Write([]byte(preface)); err != nil {
			conn.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("distributed: %w: dialing %s: %v", ErrUnavailable, addr, err)
	}
	c := &Client{conn: conn, readDone: make(chan struct{}), pending: map[uint64]*pendingCall{}}
	c.stub = stub{c}
	go c.readLoop()
	return c, nil
}

// readLoop settles pending calls as their replies arrive and, when the
// stream ends, fails whatever is still pending with ErrUnavailable.
func (c *Client) readLoop() {
	defer close(c.readDone)
	br := bufio.NewReader(c.conn)
	var err error
	for err == nil {
		err = c.readReply(br)
	}
	c.mu.Lock()
	c.die(err.Error())
	for id, pc := range c.pending {
		pc.done <- c.dead
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// die records, under c.mu, the first reason the client stopped working.
func (c *Client) die(why string) {
	if c.dead == nil {
		c.dead = fmt.Errorf("distributed: %w: %s", ErrUnavailable, why)
	}
}

// readReply reads one frame and settles the call it answers. An error means
// the stream is lost.
func (c *Client) readReply(br *bufio.Reader) error {
	h, err := readHeader(br)
	if err != nil {
		return err
	}
	c.mu.Lock()
	pc := c.pending[h.id]
	delete(c.pending, h.id)
	c.mu.Unlock()
	if pc == nil {
		// Nobody waits for this reply (the caller gave up, or the id was
		// never ours): skip it undecoded.
		_, err = readBody(br, h, nil)
		return err
	}
	body, failed := pc.resp, h.flags&flagError != 0
	if failed {
		body = new(errorText)
	}
	bad, err := readBody(br, h, body)
	switch {
	case err != nil:
		pc.done <- fmt.Errorf("distributed: %w: reply cut short: %v", ErrUnavailable, err)
	case bad != nil:
		pc.done <- fmt.Errorf("distributed: malformed reply: %v", bad)
	case failed:
		pc.done <- errors.New(string(*body.(*errorText)))
	default:
		pc.done <- nil
	}
	return err
}

// Call implements Caller: it sends req as method m and waits for the reply.
func (c *Client) Call(m Method, req Message, abort <-chan struct{}) (Message, error) {
	id, pc := c.nextID.Add(1), &pendingCall{methods[m].newRep(), make(chan error, 1)}
	c.mu.Lock()
	err := c.dead
	if err == nil {
		c.pending[id] = pc
	}
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	forget := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	f, err := encodeFrame(id, uint8(m), 0, req)
	if err != nil {
		forget()
		return nil, fmt.Errorf("distributed: %s request: %w", m, err)
	}
	c.wmu.Lock()
	err = send(f, c.conn)
	c.wmu.Unlock()
	if err != nil {
		// Part of a frame may be out, so the stream is lost: the connection
		// goes and takes every pending call along.
		c.conn.Close()
		forget()
		return nil, fmt.Errorf("distributed: %w: sending %s: %v", ErrUnavailable, m, err)
	}
	select {
	case err := <-pc.done:
		if err != nil {
			return nil, err
		}
		return pc.resp, nil
	case <-abort: // nil for the calls that cannot be abandoned: never fires
		forget()
		return nil, fmt.Errorf("distributed: %s aborted", m)
	}
}

// Err reports the client's terminal transport error: non-nil once the read
// loop has failed or Close was called. TCPResolver uses it to evict dead
// cached clients and redial after a task restart.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Close implements Transport. It returns once the read loop has exited, by
// which time every pending call has failed with ErrUnavailable.
func (c *Client) Close() error {
	c.mu.Lock()
	c.die("client closed")
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readDone
	return err
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
