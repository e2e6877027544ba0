// Package rendezvous implements the key-based tensor exchange used by Send
// and Recv operations (paper §3.3). A Send deposits a value under a
// rendezvous key; the matching Recv blocks until the value is available
// locally. The Local implementation serves same-process exchanges; the
// distributed worker wires remote transfers into the same table, so kernels
// never distinguish local from remote peers.
package rendezvous

import (
	"errors"
	"strings"
	"sync"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// ErrAborted is returned by Recv when the step aborts while waiting.
var ErrAborted = errors.New("rendezvous: step aborted")

type entry struct {
	value   ops.Value
	full    bool
	aborted bool
	ready   chan struct{}
}

// Local is an in-process rendezvous table. Values are removed when
// received; keys are step-scoped (see ops.RendezvousKey), and CleanupStep
// drops leftovers from aborted steps.
type Local struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewLocal creates an empty rendezvous table.
func NewLocal() *Local {
	return &Local{entries: make(map[string]*entry)}
}

func (r *Local) get(key string) *entry {
	e, ok := r.entries[key]
	if !ok {
		e = &entry{ready: make(chan struct{})}
		r.entries[key] = e
	}
	return e
}

// Send implements ops.Rendezvous. It never blocks: the table buffers one
// value per key ("Send transmits its single input … as soon as the tensor
// is available").
func (r *Local) Send(key string, v ops.Value) error {
	r.mu.Lock()
	e := r.get(key)
	if e.full {
		r.mu.Unlock()
		return errors.New("rendezvous: duplicate send for key " + key)
	}
	e.value = v
	e.full = true
	close(e.ready)
	r.mu.Unlock()
	return nil
}

// Recv blocks until the key is sent or abort fires, then consumes the value:
// the sender's own tensor, for a task serving a peer, which encodes it.
func (r *Local) Recv(key string, abort <-chan struct{}) (ops.Value, error) {
	return r.RecvInto(key, nil, abort)
}

// RecvInto implements ops.Rendezvous: Recv, with the tensor copied into a
// buffer from alloc (nil: none), which the receiver owns; the sender keeps
// its own.
func (r *Local) RecvInto(key string, alloc tensor.Alloc, abort <-chan struct{}) (ops.Value, error) {
	r.mu.Lock()
	e := r.get(key)
	r.mu.Unlock()
	select {
	case <-e.ready:
	case <-abort:
		return ops.Value{}, ErrAborted
	}
	r.mu.Lock()
	if e.aborted {
		r.mu.Unlock()
		return ops.Value{}, ErrAborted
	}
	v := e.value
	delete(r.entries, key)
	r.mu.Unlock()
	if alloc != nil && v.Tensor != nil {
		t := alloc(v.Tensor.DType(), v.Tensor.Shape())
		t.CopyFrom(v.Tensor)
		v.Tensor = t
	}
	return v, nil
}

// CleanupStep removes all keys belonging to the given step prefix,
// reclaiming buffered values from aborted steps and waking any receiver still
// blocked on a key the step will never produce.
func (r *Local) CleanupStep(stepPrefix string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, e := range r.entries {
		if strings.HasPrefix(k, stepPrefix) {
			if !e.full {
				e.aborted = true
				close(e.ready)
			}
			delete(r.entries, k)
		}
	}
}

// Pending returns the number of buffered or awaited keys (for tests and
// leak detection).
func (r *Local) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
