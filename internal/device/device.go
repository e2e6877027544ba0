// Package device implements the device layer of the runtime (paper §3.3,
// §5): device names and specs, the CPU device, and the per-device resource
// manager that owns variables and queues. "Each operation resides on a
// particular device … a device is responsible for executing a kernel for
// each operation assigned to it."
package device

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ops"
	"repro/internal/queue"
	"repro/internal/tensor"
)

// Spec is a parsed device name. Full names look like
// "/job:worker/task:3/device:GPU:1"; any field may be absent in a
// *constraint* ("a GPU in any task", §3.3), but concrete devices are fully
// specified.
type Spec struct {
	Job  string // e.g. "worker", "ps"; "" = unconstrained
	Task int    // -1 = unconstrained
	Type string // e.g. "CPU", "GPU"; "" = unconstrained
	ID   int    // -1 = unconstrained
}

// ParseSpec parses a (possibly partial) device name.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{Task: -1, ID: -1}
	if s == "" {
		return spec, nil
	}
	for _, part := range strings.Split(strings.TrimPrefix(s, "/"), "/") {
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return spec, fmt.Errorf("device: malformed component %q in %q", part, s)
		}
		switch kv[0] {
		case "job":
			spec.Job = kv[1]
		case "task", "replica":
			n, err := strconv.Atoi(kv[1])
			if err != nil {
				return spec, fmt.Errorf("device: bad task in %q: %w", s, err)
			}
			spec.Task = n
		case "device":
			rest := kv[1]
			if i := strings.LastIndex(rest, ":"); i >= 0 {
				n, err := strconv.Atoi(rest[i+1:])
				if err != nil {
					return spec, fmt.Errorf("device: bad device id in %q: %w", s, err)
				}
				spec.ID = n
				rest = rest[:i]
			}
			spec.Type = strings.ToUpper(rest)
		case "cpu", "gpu":
			n, err := strconv.Atoi(kv[1])
			if err != nil {
				return spec, fmt.Errorf("device: bad device id in %q: %w", s, err)
			}
			spec.Type = strings.ToUpper(kv[0])
			spec.ID = n
		default:
			return spec, fmt.Errorf("device: unknown component %q in %q", kv[0], s)
		}
	}
	return spec, nil
}

// String renders the spec canonically, omitting unconstrained fields.
func (s Spec) String() string {
	var sb strings.Builder
	if s.Job != "" {
		fmt.Fprintf(&sb, "/job:%s", s.Job)
	}
	if s.Task >= 0 {
		fmt.Fprintf(&sb, "/task:%d", s.Task)
	}
	if s.Type != "" {
		fmt.Fprintf(&sb, "/device:%s", s.Type)
		if s.ID >= 0 {
			fmt.Fprintf(&sb, ":%d", s.ID)
		}
	}
	return sb.String()
}

// IsFull reports whether the spec names one concrete device.
func (s Spec) IsFull() bool {
	return s.Job != "" && s.Task >= 0 && s.Type != "" && s.ID >= 0
}

// Matches reports whether a concrete device spec satisfies constraint c:
// every constrained field must agree.
func (s Spec) Matches(c Spec) bool {
	if c.Job != "" && c.Job != s.Job {
		return false
	}
	if c.Task >= 0 && c.Task != s.Task {
		return false
	}
	if c.Type != "" && c.Type != s.Type {
		return false
	}
	if c.ID >= 0 && c.ID != s.ID {
		return false
	}
	return true
}

// Conflict reports the first field on which the two constraints disagree
// ("job", "task", "type" or "id"), or "" when they are compatible and
// Merge will succeed. It is the single source of conflict detection, so
// callers that attribute conflicts (the placer's blame tracking) cannot
// drift from Merge.
func (s Spec) Conflict(o Spec) string {
	switch {
	case s.Job != "" && o.Job != "" && s.Job != o.Job:
		return "job"
	case s.Task >= 0 && o.Task >= 0 && s.Task != o.Task:
		return "task"
	case s.Type != "" && o.Type != "" && s.Type != o.Type:
		return "type"
	case s.ID >= 0 && o.ID >= 0 && s.ID != o.ID:
		return "id"
	}
	return ""
}

// Merge combines two constraints; it fails if they conflict. Without a
// conflict, merging is exactly Override (the union of the constrained
// fields).
func (s Spec) Merge(o Spec) (Spec, error) {
	switch s.Conflict(o) {
	case "job":
		return s, fmt.Errorf("device: job %q conflicts with %q", s.Job, o.Job)
	case "task":
		return s, fmt.Errorf("device: task %d conflicts with %d", s.Task, o.Task)
	case "type":
		return s, fmt.Errorf("device: type %q conflicts with %q", s.Type, o.Type)
	case "id":
		return s, fmt.Errorf("device: id %d conflicts with %d", s.ID, o.ID)
	}
	return s.Override(o), nil
}

// Unconstrained returns the spec that matches every device (every field
// unset). It is the identity of both Merge and Override.
func Unconstrained() Spec { return Spec{Task: -1, ID: -1} }

// Override refines constraint s with o, with o winning wherever both
// constrain the same field — the semantics of nested device scopes (§3.3):
// an outer "/job:ps" scope refined by an inner "/task:1/device:CPU:0" yields
// "/job:ps/task:1/device:CPU:0", while an inner "/job:worker" replaces the
// outer job entirely. Unlike Merge, Override cannot fail.
func (s Spec) Override(o Spec) Spec {
	out := s
	if o.Job != "" {
		out.Job = o.Job
	}
	if o.Task >= 0 {
		out.Task = o.Task
	}
	if o.Type != "" {
		out.Type = o.Type
	}
	if o.ID >= 0 {
		out.ID = o.ID
	}
	return out
}

// Device is one executable device: a concrete spec plus the resource
// manager that owns its stateful objects.
type Device struct {
	spec      Spec
	resources *ResourceManager
}

// NewCPU creates a CPU device for the given job/task.
func NewCPU(job string, task, id int) *Device {
	return &Device{
		spec:      Spec{Job: job, Task: task, Type: "CPU", ID: id},
		resources: NewResourceManager(),
	}
}

// Spec returns the device's concrete spec.
func (d *Device) Spec() Spec { return d.spec }

// Name returns the canonical device name.
func (d *Device) Name() string { return d.spec.String() }

// Resources returns the device's resource manager.
func (d *Device) Resources() *ResourceManager { return d.resources }

// ResourceManager owns the stateful objects (variables, queues, RNG
// streams, gradient stacks) that live on one device and persist across
// steps (§3.2). Stacks are the exception to persistence: the kernels key
// them by step and drop them when drained, so they live only from a step's
// forward loop to its backward loop; a drained one is kept as its name's
// spare, so that the next step's stack does not grow its items again.
type ResourceManager struct {
	mu     sync.Mutex
	vars   map[string]*ops.Variable
	queues map[string]queue.Queue
	rngs   map[string]*tensor.RNG
	stacks map[ops.StackKey]*ops.Stack
	spares map[string]*ops.Stack
}

// NewResourceManager creates an empty resource manager.
func NewResourceManager() *ResourceManager {
	return &ResourceManager{
		vars:   make(map[string]*ops.Variable),
		queues: make(map[string]queue.Queue),
		rngs:   make(map[string]*tensor.RNG),
		stacks: make(map[ops.StackKey]*ops.Stack),
		spares: make(map[string]*ops.Stack),
	}
}

// FindOrCreateVariable implements ops.Resources.
func (m *ResourceManager) FindOrCreateVariable(name string, dt tensor.DType, shape tensor.Shape) *ops.Variable {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.vars[name]; ok {
		return v
	}
	v := ops.NewVariable(dt, shape)
	m.vars[name] = v
	return v
}

// LookupVariable returns the named variable, or nil when the device holds
// none: the read-only probe for callers that must not create state on
// behalf of an untrusted name (a gradient push, §4.4).
func (m *ResourceManager) LookupVariable(name string) *ops.Variable {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vars[name]
}

// FindOrCreateQueue implements ops.Resources.
func (m *ResourceManager) FindOrCreateQueue(name string, factory func() queue.Queue) queue.Queue {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q, ok := m.queues[name]; ok {
		return q
	}
	q := factory()
	m.queues[name] = q
	return q
}

// RNG implements ops.Resources.
func (m *ResourceManager) RNG(name string, seed int64) *tensor.RNG {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok := m.rngs[name]; ok {
		return g
	}
	g := tensor.NewRNG(seed)
	m.rngs[name] = g
	return g
}

// FindOrCreateStack implements ops.StackResources.
func (m *ResourceManager) FindOrCreateStack(key ops.StackKey) *ops.Stack {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.stacks[key]; ok {
		return s
	}
	s, ok := m.spares[key.Name]
	if !ok {
		s = &ops.Stack{}
	}
	delete(m.spares, key.Name)
	m.stacks[key] = s
	return s
}

// DropStack implements ops.StackResources: the drained stack becomes its
// name's spare.
func (m *ResourceManager) DropStack(key ops.StackKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := m.stacks[key]; s != nil {
		m.spares[key.Name] = s
	}
	delete(m.stacks, key)
}

// DropStepStacks implements ops.StackResources: it removes every stack the
// given step created, so a failed or aborted step cannot leak its saved
// forward intermediates for the life of the device.
func (m *ResourceManager) DropStepStacks(stepID int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for key := range m.stacks {
		if key.StepID == stepID {
			delete(m.stacks, key)
		}
	}
}

// StackNames returns the names of the live (undrained) stacks; tests use it
// to assert backward loops consume everything their forward loops saved.
func (m *ResourceManager) StackNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.stacks))
	for key := range m.stacks {
		out = append(out, fmt.Sprintf("%s@step%d", key.Name, key.StepID))
	}
	return out
}

// SnapshotVariables returns every initialized variable's value as of the
// call (consistent per variable; not copied, and not to be modified), keyed
// by resource name — the unit of user-level checkpointing (§4.3). Uninitialized variables are skipped:
// they have no state worth saving and would fail to read.
func (m *ResourceManager) SnapshotVariables() map[string]*tensor.Tensor {
	m.mu.Lock()
	vars := make(map[string]*ops.Variable, len(m.vars))
	for name, v := range m.vars {
		vars[name] = v
	}
	m.mu.Unlock()
	out := make(map[string]*tensor.Tensor, len(vars))
	for name, v := range vars {
		if t, err := v.Read(); err == nil {
			out[name] = t
		}
	}
	return out
}

// VariableNames returns the names of all live variables (for checkpoints
// and tests).
func (m *ResourceManager) VariableNames() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.vars))
	for name := range m.vars {
		out = append(out, name)
	}
	return out
}

// Reset drops all state, as when a task restarts after a failure (§4.3).
func (m *ResourceManager) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vars = make(map[string]*ops.Variable)
	for _, q := range m.queues {
		q.Close()
	}
	m.queues = make(map[string]queue.Queue)
	m.rngs = make(map[string]*tensor.RNG)
	m.stacks = make(map[ops.StackKey]*ops.Stack)
	m.spares = make(map[string]*ops.Stack)
}
