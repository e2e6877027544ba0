// Package ops implements the operation library: for every op type it
// registers an OpDef (arity, attributes, shape inference) with the graph
// package and a CPU kernel with the kernel registry defined here. The
// dataflow executor (internal/exec) dispatches these kernels.
//
// The split mirrors the paper's architecture (§3.3, §5): operation metadata
// is device-independent, while kernels are registered per (operation,
// device) pair so that specialized implementations can coexist.
package ops

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/queue"
	"repro/internal/tensor"
)

// Value is what flows along one edge during a step: either a tensor, or a
// reference to mutable state (the output of a Variable or queue op, §3.1),
// or a "dead" marker used by conditional execution (§3.4).
type Value struct {
	Tensor *tensor.Tensor
	Ref    *Resource
	Dead   bool
}

// ResourceKind distinguishes the kinds of mutable state a reference edge
// can point at.
type ResourceKind uint8

// Resource kinds.
const (
	ResourceVariable ResourceKind = iota
	ResourceQueue
	ResourceReader
)

// Resource is a named piece of mutable state owned by a device. Variables
// and queues are the two stateful-operation families in the paper (§3.1).
type Resource struct {
	Kind ResourceKind
	Name string

	Var   *Variable
	Queue queue.Queue
}

// Variable owns the state behind a Variable op. Every value it hands out is
// either a lease or an escape. Lease hands the current value to a reader the
// executor tracks, which gives it back through Return once the reader's last
// consumer has run; Read, Assign's operand and an update's forwarded result
// escape, and are never written again. An update writes the new value into
// the spare — a buffer of an earlier value that no lease or escape holds —
// and allocates only when there is none; the sparse writers, which write in
// place (§4.2), do so on the current value when nobody holds it and on a copy
// otherwise. Reads and writes take the lock; the executor makes no other
// promise about ordering between concurrent steps, matching the paper's
// relaxed consistency (§4.3: "many learning algorithms do not require strong
// consistency").
type Variable struct {
	mu          sync.RWMutex
	dtype       tensor.DType
	shape       tensor.Shape
	value       *tensor.Tensor
	initialized bool
	// The current value's leases still out, and whether it escaped.
	leases  int
	escaped bool
	// old is the value replaced last while leases on it were out, and
	// oldLeases how many still are; the last one back makes it the spare.
	// An older value still leased is dropped, and never reused.
	old       *tensor.Tensor
	oldLeases int
	spare     *tensor.Tensor
}

// NewVariable creates an uninitialized variable of the given static type.
func NewVariable(dt tensor.DType, shape tensor.Shape) *Variable {
	return &Variable{dtype: dt, shape: shape}
}

// DType returns the variable's element type.
func (v *Variable) DType() tensor.DType { return v.dtype }

// Shape returns the variable's declared shape.
func (v *Variable) Shape() tensor.Shape { return v.shape }

// Read returns the current value, which the caller must not modify, and
// marks it escaped: no later update writes into it. It fails if the variable
// has never been assigned, mirroring the reference runtime's
// uninitialized-variable error. Nothing is copied.
func (v *Variable) Read() (*tensor.Tensor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.initialized {
		return nil, fmt.Errorf("ops: reading uninitialized variable")
	}
	v.escaped = true
	return v.value, nil
}

// Lease returns the current value like Read, but counts it as lent: the
// caller must not modify it, and must hand it back through Return once
// nothing reads it any more. Until then no update writes into it; after,
// the next update may. A lease that is never returned costs only the reuse.
func (v *Variable) Lease() (*tensor.Tensor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.initialized {
		return nil, fmt.Errorf("ops: reading uninitialized variable")
	}
	v.leases++
	return v.value, nil
}

// Return ends a lease taken by Lease on t.
func (v *Variable) Return(t *tensor.Tensor) {
	v.mu.Lock()
	defer v.mu.Unlock()
	switch t {
	case v.value:
		v.leases--
	case v.old:
		if v.oldLeases--; v.oldLeases == 0 {
			v.spare, v.old = v.old, nil
		}
	}
}

// WithValue runs fn with the current value under the read lock, so sparse
// reads (Gather) can copy just the rows they need without racing in-place
// writers. fn must not keep the tensor: unlike Read this does not mark it
// handed out, and a table only ever read this way is never copied.
func (v *Variable) WithValue(fn func(cur *tensor.Tensor) error) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if !v.initialized {
		return fmt.Errorf("ops: reading uninitialized variable")
	}
	return fn(v.value)
}

// Initialized reports whether the variable has been assigned.
func (v *Variable) Initialized() bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.initialized
}

// install makes nv the value (v.mu held); escaped says whether anyone but
// the variable holds it. The value it replaces becomes the spare at once if
// nobody holds it, once its leases are back if only leases do, and never if
// it escaped.
func (v *Variable) install(nv *tensor.Tensor, escaped bool) {
	switch {
	case !v.initialized || v.escaped:
	case v.leases == 0:
		v.spare = v.value
	default:
		v.old, v.oldLeases = v.value, v.leases
	}
	v.value, v.leases, v.escaped = nv, 0, escaped
	v.initialized = true
}

// Assign replaces the value with t, which the caller may keep but must not
// modify afterwards.
func (v *Variable) Assign(t *tensor.Tensor) error {
	if t.DType() != v.dtype {
		return fmt.Errorf("ops: assigning %v to %v variable", t.DType(), v.dtype)
	}
	if v.shape.IsFullyDefined() && !t.Shape().Equal(v.shape) {
		return fmt.Errorf("ops: assigning shape %v to variable of shape %v", t.Shape(), v.shape)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.install(t, true)
	return nil
}

// Replace installs fn(alloc', cur) as the value and returns it. fn must not
// modify cur, and must create its result through alloc', which returns the
// spare when it has the dtype and element count asked for and calls alloc
// otherwise; fn writes every element of it. This is the associative-combiner
// write specialization of the parameter-server model (§2.2): one pass over
// the parameters into a buffer no reader holds. The result escapes — the
// caller may hand it on — unless private says the caller hands it to no one.
func (v *Variable) Replace(alloc tensor.Alloc, private bool, fn func(alloc tensor.Alloc, cur *tensor.Tensor) (*tensor.Tensor, error)) (*tensor.Tensor, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.initialized {
		return nil, fmt.Errorf("ops: updating uninitialized variable")
	}
	nv, err := fn(func(dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
		if sp := v.spare; sp != nil && sp.DType() == dt && sp.NumElements() == shape.NumElements() {
			v.spare = nil
			return sp.ViewAs(shape)
		}
		return alloc(dt, shape)
	}, v.value)
	if err != nil {
		return nil, err
	}
	v.install(nv, !private)
	return nv, nil
}

// Mutate runs fn on a buffer it may write in place: the current value if
// nobody else holds it, a copy made now otherwise. The copy is paid by the
// first in-place write after the value was handed out, not by every reader.
func (v *Variable) Mutate(fn func(cur *tensor.Tensor) error) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if !v.initialized {
		return fmt.Errorf("ops: updating uninitialized variable")
	}
	if v.escaped || v.leases > 0 {
		v.install(v.value.Clone(), false)
	}
	return fn(v.value)
}

// Resources locates named mutable state. Each device owns one resource
// manager, so stateful ops placed on that device share state across steps
// (§3.2: "stateful operations enable coordination between the steps").
type Resources interface {
	// FindOrCreateVariable returns the variable with the given name,
	// creating it with the given static type on first use.
	FindOrCreateVariable(name string, dt tensor.DType, shape tensor.Shape) *Variable
	// FindOrCreateQueue returns the named queue, creating it with the
	// factory on first use.
	FindOrCreateQueue(name string, factory func() queue.Queue) queue.Queue
	// RNG returns the named deterministic random source, seeded on first
	// use with the given seed.
	RNG(name string, seed int64) *tensor.RNG
}

// Rendezvous exchanges tensors between per-device subgraphs. Send is
// non-blocking; Recv blocks until the key is produced or the step aborts
// (§3.3). RecvInto's tensor is the receiver's own, taken from alloc: decoded
// into it from another task, copied into it from this one, so that a Recv's
// output can be recycled without touching what the sender keeps.
type Rendezvous interface {
	Send(key string, v Value) error
	RecvInto(key string, alloc tensor.Alloc, abort <-chan struct{}) (Value, error)
}

// OpContext is the execution context handed to a kernel.
//
// The executor reuses OpContext values and their Inputs/Outputs slices
// across node executions within a step (and across steps of one
// executable), so kernels must not retain the context or alias its slices
// after returning; the tensors themselves may be retained freely.
type OpContext struct {
	Node       *graph.Node
	Inputs     []Value
	Outputs    []Value
	Resources  Resources
	Rendezvous Rendezvous
	// StepID identifies the step for rendezvous key scoping.
	StepID int64
	// Abort is closed when the step is cancelled; blocking kernels must
	// honor it.
	Abort <-chan struct{}
	// Alloc creates the node's outputs: every kernel of a NoRetain op
	// creates each tensor it outputs here and writes every element of it,
	// since the buffer may be one the executor recycled in this step. Pass it
	// on to the tensor function that computes the output. The executor sets
	// it for every node; a context built by hand sets tensor.New.
	Alloc tensor.Alloc
	// Private is set by the executor for a node whose output 0 nobody keeps:
	// a Read whose value the executor returns to the variable once its last
	// consumer has run (Read then takes a lease, not an escape), or an update
	// whose output 0 has no consumer and no fetch (its new value stays the
	// variable's own).
	Private bool
}

// Input returns the tensor on data input i, failing on dead or ref values.
func (c *OpContext) Input(i int) (*tensor.Tensor, error) {
	if i >= len(c.Inputs) {
		return nil, fmt.Errorf("ops: %s missing input %d", c.Node.Name(), i)
	}
	v := c.Inputs[i]
	if v.Tensor == nil {
		return nil, fmt.Errorf("ops: %s input %d has no tensor value", c.Node.Name(), i)
	}
	return v.Tensor, nil
}

// InputRef returns the resource handle on input i.
func (c *OpContext) InputRef(i int) (*Resource, error) {
	if i >= len(c.Inputs) || c.Inputs[i].Ref == nil {
		return nil, fmt.Errorf("ops: %s input %d is not a reference", c.Node.Name(), i)
	}
	return c.Inputs[i].Ref, nil
}

// InputVar returns the variable behind the reference on input i.
func (c *OpContext) InputVar(i int) (*Variable, error) {
	r, err := c.InputRef(i)
	if err != nil {
		return nil, err
	}
	if r.Kind != ResourceVariable || r.Var == nil {
		return nil, fmt.Errorf("ops: %s input %d is not a variable reference", c.Node.Name(), i)
	}
	return r.Var, nil
}

// InputQueue returns the queue behind the reference on input i.
func (c *OpContext) InputQueue(i int) (queue.Queue, error) {
	r, err := c.InputRef(i)
	if err != nil {
		return nil, err
	}
	if r.Kind != ResourceQueue || r.Queue == nil {
		return nil, fmt.Errorf("ops: %s input %d is not a queue reference", c.Node.Name(), i)
	}
	return r.Queue, nil
}

// SetOutput stores a tensor result.
func (c *OpContext) SetOutput(i int, t *tensor.Tensor) { c.Outputs[i] = Value{Tensor: t} }

// SetOutputRef stores a reference result.
func (c *OpContext) SetOutputRef(i int, r *Resource) { c.Outputs[i] = Value{Ref: r} }

// Kernel executes one operation on one device.
type Kernel func(ctx *OpContext) error

type kernelEntry struct {
	fn       Kernel
	mayBlock bool
}

var (
	kernelMu sync.RWMutex
	kernels  = map[string]kernelEntry{}
)

// kernelKey builds the registry key for an (op, deviceType) pair.
func kernelKey(op, deviceType string) string { return op + "@" + deviceType }

// RegisterKernel installs a kernel for an op on a device type ("CPU" here;
// the registry supports other device types for extensions).
func RegisterKernel(op, deviceType string, fn Kernel) {
	registerKernel(op, deviceType, fn, false)
}

// RegisterBlockingKernel installs a kernel that may block (queue operations,
// Recv); the executor runs such kernels on dedicated goroutines so they
// cannot starve the compute pool.
func RegisterBlockingKernel(op, deviceType string, fn Kernel) {
	registerKernel(op, deviceType, fn, true)
}

func registerKernel(op, deviceType string, fn Kernel, blocks bool) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	key := kernelKey(op, deviceType)
	if _, dup := kernels[key]; dup {
		panic(fmt.Sprintf("ops: kernel %s registered twice", key))
	}
	kernels[key] = kernelEntry{fn: fn, mayBlock: blocks}
}

// lookupEntry resolves the registry entry for an op on a device type,
// falling back to the CPU implementation, which every op must provide.
func lookupEntry(op, deviceType string) (kernelEntry, bool) {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	if e, ok := kernels[kernelKey(op, deviceType)]; ok {
		return e, true
	}
	e, ok := kernels[kernelKey(op, "CPU")]
	return e, ok
}

// LookupKernel finds the kernel for an op on a device type.
func LookupKernel(op, deviceType string) (Kernel, error) {
	kernel, _, err := LookupKernelInfo(op, deviceType)
	return kernel, err
}

// LookupKernelInfo resolves the kernel for an op on a device type together
// with its may-block flag in a single registry access; the executor's
// compile loop uses it so each node pays for one lock acquisition instead
// of two.
func LookupKernelInfo(op, deviceType string) (Kernel, bool, error) {
	e, ok := lookupEntry(op, deviceType)
	if !ok {
		return nil, false, fmt.Errorf("ops: no kernel for op %s on device type %s", op, deviceType)
	}
	return e.fn, e.mayBlock, nil
}

// MayBlock reports whether the op's kernel can block on external events.
func MayBlock(op string) bool {
	e, ok := lookupEntry(op, "CPU")
	return ok && e.mayBlock
}

// --- shared shape-inference helpers --------------------------------------

func sameAsInput(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
	return []graph.IOSpec{{DType: in[0].DType, Shape: in[0].Shape.Clone()}}, nil
}

func broadcastBinary(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
	if in[0].DType != in[1].DType {
		return nil, fmt.Errorf("dtype mismatch %v vs %v", in[0].DType, in[1].DType)
	}
	a, b := in[0].Shape, in[1].Shape
	if !a.IsFullyDefined() || !b.IsFullyDefined() {
		// Partial shapes: defer exact checking to runtime; use the
		// higher-rank operand as the estimate.
		s := a
		if len(b) > len(a) {
			s = b
		}
		return []graph.IOSpec{{DType: in[0].DType, Shape: s.Clone()}}, nil
	}
	out, err := tensor.BroadcastShapes(a, b)
	if err != nil {
		return nil, err
	}
	return []graph.IOSpec{{DType: in[0].DType, Shape: out.Clone()}}, nil
}

func comparisonBinary(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
	specs, err := broadcastBinary(n, in)
	if err != nil {
		return nil, err
	}
	specs[0].DType = tensor.Bool
	return specs, nil
}

func numericCheck(spec graph.IOSpec, what string) error {
	if !spec.DType.IsNumeric() {
		return fmt.Errorf("%s must be numeric, got %v", what, spec.DType)
	}
	return nil
}

func scalarSpec(dt tensor.DType) graph.IOSpec {
	return graph.IOSpec{DType: dt, Shape: tensor.ScalarShape()}
}

func unknownSpec(dt tensor.DType, rank int) graph.IOSpec {
	s := make(tensor.Shape, rank)
	for i := range s {
		s[i] = -1
	}
	return graph.IOSpec{DType: dt, Shape: s}
}
