package distributed

// Method names one of the five calls of service: the method byte of a TCP
// frame, and the index of the call's entry in methods. Byte 6 is unassigned
// (it was Heartbeat's), so a peer that still sends it is refused by number.
type Method uint8

const (
	mRegisterGraph = 1 + iota
	mRunGraph
	mRecvTensor
	mAbortStep
	mPushGradients
)

// String returns the name of the service method, "RunGraph" for example.
func (m Method) String() string { return methods[m].name }

// method is one RPC: its name, a fresh request and a fresh reply to parse a
// frame into, and the typed call that serves it. abort ends the calls that
// block on other tasks (RecvTensor, PushGradients); the rest ignore it.
type method struct {
	name           string
	newReq, newRep func() Message
	serve          func(s service, req Message, abort <-chan struct{}) (Message, error)
}

// methods is indexed by Method. Its serve entries are the only place a
// Message is turned back into a typed call: Worker.serve dispatches a decoded
// frame through them, and Invoke forwards an untyped call to any Transport.
var methods = [...]method{
	mRegisterGraph: rpc("RegisterGraph", unary(service.RegisterGraph)),
	mRunGraph:      rpc("RunGraph", unary(service.RunGraph)),
	mRecvTensor:    rpc("RecvTensor", service.RecvTensor),
	mAbortStep: rpc("AbortStep", unary(func(s service, q *AbortStepReq) (*noReply, error) {
		return new(noReply), s.AbortStep(q)
	})),
	mPushGradients: rpc("PushGradients", service.PushGradients),
}

// rpc makes a typed service call a table entry.
func rpc[Q, R any, PQ interface {
	*Q
	Message
}, PR interface {
	*R
	Message
}](name string, f func(service, PQ, <-chan struct{}) (PR, error)) method {
	return method{name, func() Message { return PQ(new(Q)) }, func() Message { return PR(new(R)) },
		func(s service, q Message, abort <-chan struct{}) (Message, error) { return f(s, q.(PQ), abort) }}
}

// unary is a call that does not block on anything an abort channel bounds.
func unary[Q, R any](f func(service, Q) (R, error)) func(service, Q, <-chan struct{}) (R, error) {
	return func(s service, q Q, _ <-chan struct{}) (R, error) { return f(s, q) }
}

// Invoke makes the typed call on t that m and req name — the inverse of the
// stub, for a layer that holds a Transport and is handed an untyped call. m
// and req come from a Call: this package makes no other.
func Invoke(t Transport, m Method, req Message, abort <-chan struct{}) (Message, error) {
	return methods[m].serve(t, req, abort)
}

// Caller is what a layer in front of a task implements (the TCP client, the
// loopback, chaos, whatever next counts or delays calls): every call of
// service as one untyped Call. abort is nil for calls that cannot be abandoned.
type Caller interface {
	Call(m Method, req Message, abort <-chan struct{}) (Message, error)
	Close() error
}

// NewTransport gives a Caller the five typed methods of Transport. The
// result is comparable, and equal for equal callers, when the caller's type
// is comparable.
func NewTransport(c Caller) Transport { return stub{c} }

// stub carries each typed call through its Caller's Call.
type stub struct{ Caller }

// as gives a Call's outcome the reply type of the method that was called.
func as[R Message](rep Message, err error) (R, error) {
	if err != nil {
		var none R
		return none, err
	}
	return rep.(R), nil
}

func (s stub) RegisterGraph(q *RegisterGraphReq) (*RegisterGraphResp, error) {
	return as[*RegisterGraphResp](s.Call(mRegisterGraph, q, nil))
}

func (s stub) RunGraph(q *RunGraphReq) (*RunGraphResp, error) {
	return as[*RunGraphResp](s.Call(mRunGraph, q, nil))
}

func (s stub) RecvTensor(q *RecvTensorReq, abort <-chan struct{}) (*RecvTensorResp, error) {
	return as[*RecvTensorResp](s.Call(mRecvTensor, q, abort))
}

func (s stub) AbortStep(q *AbortStepReq) error {
	_, err := s.Call(mAbortStep, q, nil)
	return err
}

func (s stub) PushGradients(q *PushGradientsReq, abort <-chan struct{}) (*PushGradientsResp, error) {
	return as[*PushGradientsResp](s.Call(mPushGradients, q, abort))
}

// inProc is the in-process transport: the TCP transport's frame codec with
// no socket under it (loopback), so a task owns every tensor it is sent.
// Errors cross as Go values. Single-process clusters (tests, the in-memory
// harness) use it. A value, so that two transports to one worker are equal.
type inProc struct{ w *Worker }

// Call implements Caller, decoding each side's message as over TCP.
func (p inProc) Call(m Method, req Message, abort <-chan struct{}) (Message, error) {
	msg, err := loopback(m, "request", req, methods[m].newReq(), p.w.agg.decodeAlloc)
	if err == nil {
		msg, err = p.w.serve(m, msg, abort)
	}
	if err != nil {
		return nil, err
	}
	return loopback(m, "reply", msg, methods[m].newRep(), replyAlloc(req))
}

// Close implements Caller.
func (inProc) Close() error { return nil }

// InProcCluster wires a full single-process cluster: one worker per task,
// each resolving peers through the shared table. It stands in for a real
// deployment in tests, examples and the real-runtime microbenchmarks.
type InProcCluster struct {
	Spec    ClusterSpec
	Workers map[string]*Worker
}

// NewInProcCluster creates and cross-wires workers for every task in spec.
func NewInProcCluster(spec ClusterSpec) *InProcCluster {
	c := &InProcCluster{Spec: spec, Workers: map[string]*Worker{}}
	for job, addrs := range spec {
		for i := range addrs {
			w := NewWorker(job, i, c.Resolver())
			c.Workers[w.Task()] = w
		}
	}
	return c
}

// Resolver returns the cluster's transport resolver.
func (c *InProcCluster) Resolver() Resolver {
	return func(task string) (Transport, error) {
		w, ok := c.Workers[task]
		if !ok {
			return nil, errUnknownTask(task)
		}
		return NewTransport(inProc{w}), nil
	}
}

type errUnknownTask string

func (e errUnknownTask) Error() string { return "distributed: unknown task " + string(e) }
