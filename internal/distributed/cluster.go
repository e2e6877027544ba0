// Package distributed implements the distributed runtime of §3.3 and §5:
// a master that prunes, optimizes, places and partitions the client's graph
// and coordinates step execution across tasks; worker services that own
// devices and execute registered subgraphs; a task-level rendezvous that
// pulls tensors from remote peers; and two transports of one length-prefixed
// binary frame format, over TCP or decoded in-process from the sender's memory.
package distributed

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/device"
	"repro/internal/tensor"
)

// ClusterSpec names the jobs of a cluster and the network address of each
// task, playing the role the paper assigns to Chubby/ZooKeeper (§4.3:
// "we rely on a system like Chubby or ZooKeeper to map task IDs to IP
// addresses").
type ClusterSpec map[string][]string

// TaskName returns the canonical task name, e.g. "/job:ps/task:0".
func TaskName(job string, index int) string {
	return fmt.Sprintf("/job:%s/task:%d", job, index)
}

// Tasks lists every task name in the cluster, sorted for determinism.
func (c ClusterSpec) Tasks() []string {
	var out []string
	for job, addrs := range c {
		for i := range addrs {
			out = append(out, TaskName(job, i))
		}
	}
	sort.Strings(out)
	return out
}

// Address returns the address registered for a task.
func (c ClusterSpec) Address(job string, index int) (string, error) {
	addrs, ok := c[job]
	if !ok || index < 0 || index >= len(addrs) {
		return "", fmt.Errorf("distributed: unknown task %s", TaskName(job, index))
	}
	return addrs[index], nil
}

// Devices lists one CPU device per task — the device set handed to
// placement.
func (c ClusterSpec) Devices() []device.Spec {
	var out []device.Spec
	for job, addrs := range c {
		for i := range addrs {
			out = append(out, device.Spec{Job: job, Task: i, Type: "CPU", ID: 0})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// taskOfDevice extracts the task name from a device name.
func taskOfDevice(dev string) (string, error) {
	spec, err := device.ParseSpec(dev)
	if err != nil {
		return "", err
	}
	if spec.Job == "" || spec.Task < 0 {
		return "", fmt.Errorf("distributed: device %q has no task", dev)
	}
	return TaskName(spec.Job, spec.Task), nil
}

// memoCap bounds a memo: the names it caches can come from peers.
const memoCap = 1024

// memo caches what parse makes of a name (the task of a device, the job and
// index of a task), so that a step's lookups allocate nothing. Errors are
// not cached. The zero memo is empty.
type memo[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

func (m *memo[V]) get(name string, parse func(string) (V, error)) (V, error) {
	m.mu.RLock()
	v, ok := m.m[name]
	m.mu.RUnlock()
	if ok {
		return v, nil
	}
	v, err := parse(name)
	if err != nil {
		return v, err
	}
	m.mu.Lock()
	if m.m == nil {
		m.m = map[string]V{}
	}
	if len(m.m) < memoCap {
		m.m[strings.Clone(name)] = v
	}
	m.mu.Unlock()
	return v, nil
}

// --- wire messages --------------------------------------------------------

// RegisterGraphReq installs one per-device subgraph on a worker (§5: the
// master "prunes and partitions the graph to obtain subgraphs for each
// participating device, and caches these subgraphs so that they may be
// re-used in subsequent steps").
type RegisterGraphReq struct {
	GraphBytes []byte
	// Feeds, Fetches are "name:index" refs local to the subgraph;
	// Targets are node names.
	Feeds   []string
	Fetches []string
	Targets []string
}

// RegisterGraphResp returns the handle for subsequent RunGraph calls.
type RegisterGraphResp struct {
	Handle string
}

// RunGraphReq executes one registered subgraph as part of step StepID.
type RunGraphReq struct {
	Handle string
	StepID int64
	Feeds  []*tensor.Tensor
}

// RunGraphResp carries the fetched tensors, in registration order.
type RunGraphResp struct {
	Fetches []*tensor.Tensor
}

// RecvTensorReq pulls the value for a rendezvous key from the task that
// produced it (§3.3).
type RecvTensorReq struct {
	Key   string
	alloc tensor.Alloc // what the reply's tensor decodes into (nil: tensor.New); never sent
}

// RecvTensorResp returns the value; Dead marks an untaken conditional
// branch propagating across devices.
type RecvTensorResp struct {
	Tensor *tensor.Tensor
	Dead   bool
}

// AbortStepReq cancels one step on a worker, unblocking its pending
// receives after a peer failure.
type AbortStepReq struct {
	StepID int64
}

// GradientPush is one variable's gradient inside a PushGradients request:
// either a dense tensor or a sparse (indices, values) pair — embedding
// gradients travel as the rows the step actually touched, never densified
// to vocabulary size.
type GradientPush struct {
	Name    string
	Dense   *tensor.Tensor
	Indices *tensor.Tensor
	Values  *tensor.Tensor
}

// PushGradientsReq pushes one worker's gradients for the variables resident
// on the receiving shard, tagged with the absolute round (== the global
// step the gradients were computed at). The shard aggregates NumFresh
// contributions per round (m-of-n backup-worker semantics, §4.4 Figure 4c),
// applies Rule next to its variables, and acknowledges. Rounds at or below
// the shard's applied round acknowledge immediately, making the RPC
// idempotent under retransmits and duplicate deliveries.
type PushGradientsReq struct {
	Origin   string // pushing worker's task name (per-round dedup key)
	Round    int64
	NumFresh int
	Rule     UpdateRule
	Grads    []GradientPush
	// StepName, when non-empty, names the scalar step counter on this shard
	// to SET to Round+1 after applying (only the shard owning the global
	// step gets a non-empty StepName).
	StepName string
}

// PushGradientsResp acknowledges a push: Round is the shard's applied round
// after the call; Applied reports whether this call's round was the one
// just applied (false for stale/duplicate rounds).
type PushGradientsResp struct {
	Round   int64
	Applied bool
}

// ErrUnavailable marks transport-level failures — the peer task cannot be
// reached (dial refused, connection lost mid-call, client torn down). They
// are the retryable class of §4.3's failure model: the task may come back,
// so a master configured with StepRetries recompiles and reruns the step.
// Over TCP, an error reply the serving task found retryable also matches it
// (Client.readReply).
var ErrUnavailable = errors.New("task unavailable")

// errUnknownHandle marks a RunGraph for a handle the task never issued: in
// practice one from before a restart, since every handle carries the
// incarnation of the Worker that issued it.
var errUnknownHandle = errors.New("unknown graph handle")

// IsRetryable reports whether an error is worth a step retry: a transport
// failure, or a registration the task no longer holds. Both are decided by
// type, in-process as over TCP, where the error reply carries the verdict.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, errUnknownHandle)
}

// service is what a task answers: the five calls, named here once. Worker
// does the work of each; the methods table (transport.go) turns each into an
// untyped Call and back, and that is all any layer between the two carries.
type service interface {
	RegisterGraph(req *RegisterGraphReq) (*RegisterGraphResp, error)
	RunGraph(req *RunGraphReq) (*RunGraphResp, error)
	RecvTensor(req *RecvTensorReq, abort <-chan struct{}) (*RecvTensorResp, error)
	AbortStep(req *AbortStepReq) error
	PushGradients(req *PushGradientsReq, abort <-chan struct{}) (*PushGradientsResp, error)
}

// Transport is the raw interface to one remote task: its service, and the
// connection to it that Close releases.
type Transport interface {
	service
	Close() error
}

// Resolver locates the transport for a task name.
type Resolver func(task string) (Transport, error)

// OnTask runs an idempotent call against task's transport, resolving again
// and retrying after a transport failure (a chaos drop, a redial window after
// a restart) up to retries more times.
func (r Resolver) OnTask(task string, retries int, call func(Transport) error) (err error) {
	for attempt := 0; attempt <= retries; attempt++ {
		var tr Transport
		if tr, err = r(task); err == nil {
			err = call(tr)
		}
		if !IsRetryable(err) {
			break
		}
	}
	return err
}
