package distributed

import (
	"crypto/rand"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
)

// abortMemory bounds how many recently-aborted step IDs a worker remembers
// so a RunGraph that loses the race against its own AbortStep (the master
// aborts after a fast-failing peer) still aborts immediately instead of
// running to completion and leaking rendezvous buffers. The same bound
// applies to the completed-step ring that rejects duplicate RunGraph
// deliveries (a retransmitted RPC must not re-apply a stateful subgraph).
const abortMemory = 1024

// Worker is the dataflow executor service of one task (§5): it registers
// subgraphs sent by the master, schedules their kernels on the local
// device, and serves RecvTensor requests from peer tasks out of its local
// rendezvous table.
type Worker struct {
	task     string
	dev      *device.Device
	local    *rendezvous.Local
	resolver Resolver
	// agg is the PS-side gradient barrier (§4.4): round-tagged m-of-n
	// accumulation, applied next to this task's resident variables.
	agg *Aggregator
	// srcTasks memoizes the task of each rendezvous key's source device.
	srcTasks memo[string]

	// incarnation is drawn at random once per Worker and is part of every
	// handle it issues, so a handle from before a restart (a new Worker at
	// the same address, or a new process) is unknown here rather than naming
	// another registration. A counter would repeat in a new process.
	incarnation string

	mu     sync.Mutex
	graphs map[string]*exec.Executable
	rules  map[ruleKey]*ruleExec // compiled update rules (psopt.go)
	steps  map[int64]chan struct{}
	// aborted remembers recently-aborted step IDs so AbortStep arriving before
	// RunGraph still cancels the step.
	aborted recentSteps
	// done remembers recently-completed step IDs, failed ones included, so a
	// duplicate RunGraph delivery (network retransmit, chaos-injected
	// duplication) errors out instead of re-running the subgraph: double-
	// applying its updates, or waiting on peer values the first delivery
	// already received. Step retries are unaffected: a retried step runs
	// under a fresh ID.
	done   recentSteps
	nextID atomic.Int64
	closed bool
}

// recentSteps remembers the last abortMemory step IDs added to it.
type recentSteps struct {
	set  map[int64]struct{}
	ring []int64
}

func (r *recentSteps) add(id int64) {
	if _, ok := r.set[id]; !ok {
		r.set[id] = struct{}{}
		if r.ring = append(r.ring, id); len(r.ring) > abortMemory {
			delete(r.set, r.ring[0])
			r.ring = r.ring[1:]
		}
	}
}

// NewWorker creates the worker for the given task ("/job:x/task:n"); the
// resolver locates peers for remote receives.
func NewWorker(job string, taskIndex int, resolver Resolver) *Worker {
	w := &Worker{
		task:        TaskName(job, taskIndex),
		dev:         device.NewCPU(job, taskIndex, 0),
		local:       rendezvous.NewLocal(),
		resolver:    resolver,
		incarnation: rand.Text(),
		graphs:      map[string]*exec.Executable{},
		rules:       map[ruleKey]*ruleExec{},
		steps:       map[int64]chan struct{}{},
		aborted:     recentSteps{set: map[int64]struct{}{}},
		done:        recentSteps{set: map[int64]struct{}{}},
	}
	w.agg = newAggregator(w)
	return w
}

// serve answers a call decoded for this task: a push goes to the aggregator,
// which keeps what it was decoded into, and every other call to its method.
func (w *Worker) serve(m Method, req Message, abort <-chan struct{}) (Message, error) {
	if push, ok := req.(*PushGradientsReq); ok {
		return w.agg.push(push, abort)
	}
	return methods[m].serve(w, req, abort)
}

// Task returns the worker's task name.
func (w *Worker) Task() string { return w.task }

// Device returns the worker's device (tests inspect its resources).
func (w *Worker) Device() *device.Device { return w.dev }

// AbortAll cancels every running step. Server.Close calls it so shutdown
// does not wait on executors blocked in rendezvous receives.
func (w *Worker) AbortAll() {
	w.mu.Lock()
	for _, ch := range w.steps {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	w.mu.Unlock()
	// Blocked pushers get a retryable error; the rounds they contributed to
	// stay, so a re-push joins them.
	w.agg.release(pushResult{err: fmt.Errorf("distributed: %w: push aborted by shutdown", ErrUnavailable)})
}

// RegisterGraph implements the service: decode, compile, cache.
func (w *Worker) RegisterGraph(req *RegisterGraphReq) (*RegisterGraphResp, error) {
	g, err := graph.Unmarshal(req.GraphBytes)
	if err != nil {
		return nil, fmt.Errorf("distributed: %s: %w", w.task, err)
	}
	feeds := make([]graph.Endpoint, len(req.Feeds))
	for i, ref := range req.Feeds {
		if feeds[i], err = g.ParseEndpoint(ref); err != nil {
			return nil, fmt.Errorf("distributed: %s: feed: %w", w.task, err)
		}
	}
	fetches := make([]graph.Endpoint, len(req.Fetches))
	for i, ref := range req.Fetches {
		if fetches[i], err = g.ParseEndpoint(ref); err != nil {
			return nil, fmt.Errorf("distributed: %s: fetch: %w", w.task, err)
		}
	}
	targets := make([]*graph.Node, len(req.Targets))
	for i, name := range req.Targets {
		targets[i] = g.ByName(name)
		if targets[i] == nil {
			return nil, fmt.Errorf("distributed: target %q names unknown node", name)
		}
	}
	ex, err := exec.Compile(g, feeds, fetches, targets, w.dev.Spec().Type)
	if err != nil {
		return nil, fmt.Errorf("distributed: %s: compiling subgraph: %w", w.task, err)
	}
	handle := fmt.Sprintf("%s/%s/g%d", w.task, w.incarnation, w.nextID.Add(1))
	w.mu.Lock()
	w.graphs[handle] = ex
	w.mu.Unlock()
	return &RegisterGraphResp{Handle: handle}, nil
}

// RunGraph implements the service: execute one registered subgraph as part
// of a (possibly multi-task) step.
func (w *Worker) RunGraph(req *RunGraphReq) (*RunGraphResp, error) {
	w.mu.Lock()
	ex, ok := w.graphs[req.Handle]
	if !ok {
		w.mu.Unlock()
		return nil, fmt.Errorf("distributed: %s: %w %q", w.task, errUnknownHandle, req.Handle)
	}
	if _, was := w.aborted.set[req.StepID]; was {
		// AbortStep won the race against this RunGraph (the master aborts
		// every participant after a fast-failing peer): the step is already
		// over, so don't start executing a subgraph nobody will consume.
		w.mu.Unlock()
		return nil, fmt.Errorf("distributed: %s: step %d aborted before it started", w.task, req.StepID)
	}
	if _, ran := w.done.set[req.StepID]; ran {
		// Duplicate delivery: this step already executed here. Re-running
		// it would double-apply stateful updates (an optimizer step applied
		// twice diverges silently), so reject the retransmit; the caller
		// that got the first response never sees this error.
		w.mu.Unlock()
		return nil, fmt.Errorf("distributed: %s: duplicate delivery of step %d", w.task, req.StepID)
	}
	if _, inflight := w.steps[req.StepID]; inflight {
		// Only RunGraph inserts into steps, so an existing entry means this
		// very step is executing right now — a concurrent duplicate.
		w.mu.Unlock()
		return nil, fmt.Errorf("distributed: %s: duplicate delivery of step %d (still running)", w.task, req.StepID)
	}
	abort := make(chan struct{})
	w.steps[req.StepID] = abort
	w.mu.Unlock()
	// A step that succeeds on every task leaves no rendezvous entry on any:
	// a Recv here deletes the entry it consumes (rendezvous.Local.RecvInto),
	// a Recv on a peer drains ours through RecvTensor, a dead Send still
	// sends, and w.done records the step. So success needs no cleanup. An
	// *aborted* step is cleaned here — the executor has fully stopped by
	// now, so this sweep also catches sends emitted while it was winding
	// down, after AbortStep's own cleanup ran.
	defer func() {
		w.mu.Lock()
		delete(w.steps, req.StepID)
		w.done.add(req.StepID)
		w.mu.Unlock()
		select {
		case <-abort:
			w.local.CleanupStep("step " + strconv.FormatInt(req.StepID, 10) + ";")
		default:
		}
	}()

	out, err := ex.Run(exec.RunParams{
		FeedValues: req.Feeds,
		Resources:  w.dev.Resources(),
		Rendezvous: &taskRendezvous{w: w},
		StepID:     req.StepID,
		Abort:      abort,
	})
	if err != nil {
		return nil, err
	}
	return &RunGraphResp{Fetches: out}, nil
}

// AbortStep implements the service: it cancels the step if it is still
// running and reclaims the step's rendezvous buffers. The master invokes it
// on every participant only when a step fails or its caller aborts; a step
// that succeeds leaves no buffer to reclaim (RunGraph).
func (w *Worker) AbortStep(req *AbortStepReq) error {
	w.mu.Lock()
	if ch, ok := w.steps[req.StepID]; ok {
		select {
		case <-ch:
		default:
			close(ch)
		}
	}
	// Remember the ID so a RunGraph for this step that is still in flight
	// (request racing the abort on the network) aborts on arrival instead
	// of running an already-ended step.
	w.aborted.add(req.StepID)
	w.mu.Unlock()
	w.local.CleanupStep("step " + strconv.FormatInt(req.StepID, 10) + ";")
	return nil
}

// RecvTensor implements the service: blocking read of a locally produced
// rendezvous value on behalf of a remote peer.
func (w *Worker) RecvTensor(req *RecvTensorReq, abort <-chan struct{}) (*RecvTensorResp, error) {
	v, err := w.local.Recv(req.Key, abort)
	if err == nil && v.Ref != nil {
		err = fmt.Errorf("distributed: reference values cannot cross tasks")
	}
	if err != nil {
		return nil, err
	}
	return &RecvTensorResp{Tensor: v.Tensor, Dead: v.Dead}, nil
}

// taskRendezvous adapts the worker's rendezvous for kernels: sends buffer
// locally; receives consult the key's source device and pull from the
// owning task when it is remote (§3.3: specialized Send/Recv per device
// pair — here local-local and task-task).
type taskRendezvous struct {
	w *Worker
}

// Send implements ops.Rendezvous.
func (r *taskRendezvous) Send(key string, v ops.Value) error {
	return r.w.local.Send(key, v)
}

// RecvInto implements ops.Rendezvous, decoding a peer task's value into alloc's.
func (r *taskRendezvous) RecvInto(key string, alloc tensor.Alloc, abort <-chan struct{}) (ops.Value, error) {
	srcTask, err := r.w.keySourceTask(key)
	if err != nil {
		return ops.Value{}, err
	}
	if srcTask == r.w.task {
		return r.w.local.RecvInto(key, alloc, abort)
	}
	tr, err := r.w.resolver(srcTask)
	if err != nil {
		return ops.Value{}, fmt.Errorf("distributed: resolving %s: %w", srcTask, err)
	}
	resp, err := tr.RecvTensor(&RecvTensorReq{Key: key, alloc: alloc}, abort)
	if err != nil {
		return ops.Value{}, err
	}
	if resp.Dead {
		return ops.Value{Dead: true}, nil
	}
	return ops.Value{Tensor: resp.Tensor}, nil
}

// keySourceTask extracts the producing task from a rendezvous key
// ("step N;srcDevice;dstDevice;name").
func (w *Worker) keySourceTask(key string) (string, error) {
	_, rest, ok := strings.Cut(key, ";")
	src, rest, ok2 := strings.Cut(rest, ";")
	if !ok || !ok2 || !strings.Contains(rest, ";") {
		return "", fmt.Errorf("distributed: malformed rendezvous key %q", key)
	}
	return w.srcTasks.get(src, taskOfDevice)
}

// LocalTensorCount reports buffered rendezvous entries (leak checks).
func (w *Worker) LocalTensorCount() int { return w.local.Pending() }
