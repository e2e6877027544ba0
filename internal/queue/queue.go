// Package queue implements the stateful queue operations of the execution
// model (paper §3.1): bounded queues of tensor tuples with blocking enqueue
// and dequeue. Queues provide backpressure in input pipelines and are the
// coordination primitive behind synchronous replication (§4.4), where a
// blocking queue acts as a barrier and a second queue accumulates gradient
// updates.
package queue

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/tensor"
)

// ErrClosed is returned for enqueues on a closed queue and for dequeues on
// a closed and drained queue.
var ErrClosed = errors.New("queue: closed")

// ErrAborted is returned when the caller's abort channel fires while the
// operation is blocked.
var ErrAborted = errors.New("queue: operation aborted")

// Element is one queue entry: a tuple of tensors (the "components" of the
// reference API).
type Element = []*tensor.Tensor

// Queue is the common interface of all queue implementations.
type Queue interface {
	// Enqueue appends one element, blocking while the queue is full.
	Enqueue(e Element, abort <-chan struct{}) error
	// EnqueueMany splits each component along its leading dimension and
	// enqueues the resulting elements one by one.
	EnqueueMany(batch Element, abort <-chan struct{}) error
	// Dequeue removes one element, blocking while the queue is empty.
	Dequeue(abort <-chan struct{}) (Element, error)
	// DequeueMany removes n elements and stacks each component along a
	// new leading dimension, blocking until n elements are available.
	DequeueMany(n int, abort <-chan struct{}) (Element, error)
	// Close marks the queue closed: enqueues fail immediately, dequeues
	// drain the remaining elements and then fail with ErrClosed.
	Close()
	// Closed reports whether Close has been called.
	Closed() bool
	// Size returns the current number of elements.
	Size() int
	// Capacity returns the maximum number of elements.
	Capacity() int
}

// base carries the shared blocking machinery: a mutex plus a broadcast
// channel that is closed and replaced on every state change, so waiters can
// select on it together with their abort channel.
type base struct {
	mu       sync.Mutex
	changed  chan struct{}
	closed   bool
	capacity int
	items    []Element
}

func newBase(capacity int) base {
	if capacity <= 0 {
		capacity = 1
	}
	return base{changed: make(chan struct{}), capacity: capacity}
}

func (b *base) broadcastLocked() {
	close(b.changed)
	b.changed = make(chan struct{})
}

// waitLocked releases the lock, waits for a state change or abort, and
// reacquires the lock.
func (b *base) waitLocked(abort <-chan struct{}) error {
	ch := b.changed
	b.mu.Unlock()
	defer b.mu.Lock()
	select {
	case <-ch:
		return nil
	case <-abort:
		return ErrAborted
	}
}

func (b *base) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		b.broadcastLocked()
	}
}

func (b *base) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed
}

func (b *base) Size() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

func (b *base) Capacity() int { return b.capacity }

func (b *base) enqueue(e Element, abort <-chan struct{}) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.closed {
			return ErrClosed
		}
		if len(b.items) < b.capacity {
			b.items = append(b.items, e)
			b.broadcastLocked()
			return nil
		}
		if err := b.waitLocked(abort); err != nil {
			return err
		}
	}
}

// dequeueWhen removes and returns one element chosen by pick once at least
// need elements are present (or the queue is closed, in which case need
// drops to 1 so the queue drains).
func (b *base) dequeueWhen(need int, pick func(items []Element) int, abort <-chan struct{}) (Element, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		effNeed := need
		if b.closed {
			effNeed = 1
		}
		if len(b.items) >= effNeed {
			i := pick(b.items)
			e := b.items[i]
			b.items = append(b.items[:i], b.items[i+1:]...)
			b.broadcastLocked()
			return e, nil
		}
		if b.closed {
			return nil, ErrClosed
		}
		if err := b.waitLocked(abort); err != nil {
			return nil, err
		}
	}
}

// splitBatch turns a batch element (components with a shared leading
// dimension) into per-row elements.
func splitBatch(batch Element) ([]Element, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("queue: EnqueueMany with no components")
	}
	n := -1
	rows := make([][]*tensor.Tensor, len(batch))
	for c, t := range batch {
		if t.Rank() < 1 {
			return nil, fmt.Errorf("queue: EnqueueMany component %d must have rank >= 1", c)
		}
		if n == -1 {
			n = t.Shape()[0]
		} else if t.Shape()[0] != n {
			return nil, fmt.Errorf("queue: EnqueueMany components disagree on batch size")
		}
		var err error
		rows[c], err = tensor.Unstack(tensor.New, t)
		if err != nil {
			return nil, err
		}
	}
	elems := make([]Element, n)
	for i := 0; i < n; i++ {
		e := make(Element, len(batch))
		for c := range batch {
			e[c] = rows[c][i]
		}
		elems[i] = e
	}
	return elems, nil
}

// stackElements stacks n dequeued elements component-wise.
func stackElements(elems []Element) (Element, error) {
	if len(elems) == 0 {
		return nil, fmt.Errorf("queue: stacking zero elements")
	}
	comps := len(elems[0])
	out := make(Element, comps)
	for c := 0; c < comps; c++ {
		parts := make([]*tensor.Tensor, len(elems))
		for i, e := range elems {
			if len(e) != comps {
				return nil, fmt.Errorf("queue: element arity mismatch")
			}
			parts[i] = e[c]
		}
		stacked, err := tensor.Stack(tensor.New, parts)
		if err != nil {
			return nil, err
		}
		out[c] = stacked
	}
	return out, nil
}

// FIFO is the FIFOQueue of the paper: strictly ordered, bounded, blocking.
type FIFO struct {
	base
}

// NewFIFO creates a FIFO queue with the given capacity.
func NewFIFO(capacity int) *FIFO {
	return &FIFO{base: newBase(capacity)}
}

// Enqueue implements Queue.
func (q *FIFO) Enqueue(e Element, abort <-chan struct{}) error { return q.enqueue(e, abort) }

// EnqueueMany implements Queue.
func (q *FIFO) EnqueueMany(batch Element, abort <-chan struct{}) error {
	elems, err := splitBatch(batch)
	if err != nil {
		return err
	}
	for _, e := range elems {
		if err := q.enqueue(e, abort); err != nil {
			return err
		}
	}
	return nil
}

// Dequeue implements Queue.
func (q *FIFO) Dequeue(abort <-chan struct{}) (Element, error) {
	return q.dequeueWhen(1, func([]Element) int { return 0 }, abort)
}

// DequeueMany implements Queue.
func (q *FIFO) DequeueMany(n int, abort <-chan struct{}) (Element, error) {
	elems := make([]Element, 0, n)
	for len(elems) < n {
		e, err := q.dequeueWhen(1, func([]Element) int { return 0 }, abort)
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return stackElements(elems)
}

// Shuffle is the RandomShuffleQueue: Dequeue removes a uniformly random
// element, and blocks until more than minAfterDequeue elements are present
// so that the shuffle window stays full during steady-state training.
type Shuffle struct {
	base
	rng             *tensor.RNG
	minAfterDequeue int
}

// NewShuffle creates a shuffle queue.
func NewShuffle(capacity, minAfterDequeue int, seed int64) *Shuffle {
	return &Shuffle{base: newBase(capacity), rng: tensor.NewRNG(seed), minAfterDequeue: minAfterDequeue}
}

// Enqueue implements Queue.
func (q *Shuffle) Enqueue(e Element, abort <-chan struct{}) error { return q.enqueue(e, abort) }

// EnqueueMany implements Queue.
func (q *Shuffle) EnqueueMany(batch Element, abort <-chan struct{}) error {
	elems, err := splitBatch(batch)
	if err != nil {
		return err
	}
	for _, e := range elems {
		if err := q.enqueue(e, abort); err != nil {
			return err
		}
	}
	return nil
}

// Dequeue implements Queue.
func (q *Shuffle) Dequeue(abort <-chan struct{}) (Element, error) {
	// pick runs under q.mu, which also serializes access to q.rng.
	return q.dequeueWhen(q.minAfterDequeue+1, func(items []Element) int {
		return int(q.rng.UniformInt(tensor.Int32, tensor.Shape{1}, len(items)).Int32s()[0])
	}, abort)
}

// DequeueMany implements Queue.
func (q *Shuffle) DequeueMany(n int, abort <-chan struct{}) (Element, error) {
	elems := make([]Element, 0, n)
	for len(elems) < n {
		e, err := q.Dequeue(abort)
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	return stackElements(elems)
}

// PaddingFIFO is the PaddingFIFOQueue: DequeueMany pads each component of
// the batch to the largest shape among the batched elements, enabling
// variable-length inputs (e.g. sentences) to be batched.
type PaddingFIFO struct {
	FIFO
}

// NewPaddingFIFO creates a padding FIFO queue.
func NewPaddingFIFO(capacity int) *PaddingFIFO {
	return &PaddingFIFO{FIFO: FIFO{base: newBase(capacity)}}
}

// DequeueMany implements Queue with padding semantics.
func (q *PaddingFIFO) DequeueMany(n int, abort <-chan struct{}) (Element, error) {
	elems := make([]Element, 0, n)
	for len(elems) < n {
		e, err := q.dequeueWhen(1, func([]Element) int { return 0 }, abort)
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
	}
	comps := len(elems[0])
	out := make(Element, comps)
	for c := 0; c < comps; c++ {
		// Find the max extent per dimension among batch members.
		rank := elems[0][c].Rank()
		maxDims := make([]int, rank)
		for _, e := range elems {
			if e[c].Rank() != rank {
				return nil, fmt.Errorf("queue: PaddingFIFO rank mismatch in component %d", c)
			}
			for d, v := range e[c].Shape() {
				if v > maxDims[d] {
					maxDims[d] = v
				}
			}
		}
		padded := make([]*tensor.Tensor, len(elems))
		for i, e := range elems {
			pads := make([][2]int, rank)
			for d := range pads {
				pads[d] = [2]int{0, maxDims[d] - e[c].Shape()[d]}
			}
			p, err := tensor.Pad(tensor.New, e[c], pads)
			if err != nil {
				return nil, err
			}
			padded[i] = p
		}
		stacked, err := tensor.Stack(tensor.New, padded)
		if err != nil {
			return nil, err
		}
		out[c] = stacked
	}
	return out, nil
}
