package train

import (
	"errors"
	"strings"
	"sync"

	"repro/tf"
)

// Coordinator manages the lifetime of background goroutines (queue runners,
// worker loops): it fans a stop signal out to all of them and collects the
// first error. It is the client-side glue for the concurrent input
// pipelines of §3.2/Figure 1.
type Coordinator struct {
	mu      sync.Mutex
	stopCh  chan struct{}
	stopped bool
	err     error
	wg      sync.WaitGroup
}

// NewCoordinator creates a running coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{stopCh: make(chan struct{})}
}

// StopChan returns the channel closed when the coordinator stops.
func (c *Coordinator) StopChan() <-chan struct{} { return c.stopCh }

// ShouldStop reports whether a stop was requested.
func (c *Coordinator) ShouldStop() bool {
	select {
	case <-c.stopCh:
		return true
	default:
		return false
	}
}

// RequestStop asks all managed goroutines to stop; the first non-nil error
// is retained.
func (c *Coordinator) RequestStop(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && c.err == nil && !isBenignShutdown(err) {
		c.err = err
	}
	if !c.stopped {
		c.stopped = true
		close(c.stopCh)
	}
}

// isBenignShutdown recognizes the errors produced by draining a closed
// queue, which are the normal end-of-input signal, not failures.
func isBenignShutdown(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "queue: closed") || strings.Contains(msg, "aborted")
}

// Go runs fn on a managed goroutine; a returned error stops the
// coordinator.
func (c *Coordinator) Go(fn func() error) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := fn(); err != nil {
			c.RequestStop(err)
		}
	}()
}

// Join waits for every managed goroutine and returns the retained error.
func (c *Coordinator) Join() error {
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// QueueRunner repeatedly runs enqueue operations on goroutines, closing the
// queue when stopped — the standard way to drive a preprocessing pipeline
// that fills an input queue (Figure 1: concurrent preprocessing steps
// feeding the training subgraph through a queue).
type QueueRunner struct {
	queue      *tf.Queue
	enqueueOps []*tf.Operation
}

// NewQueueRunner creates a runner that drives each enqueue op on its own
// goroutine.
func NewQueueRunner(q *tf.Queue, enqueueOps ...*tf.Operation) *QueueRunner {
	return &QueueRunner{queue: q, enqueueOps: enqueueOps}
}

// Start launches the enqueue loops under the coordinator.
func (qr *QueueRunner) Start(sess *tf.Session, c *Coordinator) {
	var once sync.Once
	closed := make(chan struct{})
	closeQueue := func() {
		once.Do(func() {
			// Close via the client API so pending dequeues drain.
			_ = sess.RunTargets(qr.queue.Close())
			close(closed)
		})
	}
	// A loop blocked on a full queue cannot see the stop: closing the queue
	// fails its enqueue, which ends the loop.
	c.Go(func() error {
		select {
		case <-c.StopChan():
			closeQueue()
		case <-closed:
		}
		return nil
	})
	for _, op := range qr.enqueueOps {
		op := op
		c.Go(func() error {
			defer closeQueue()
			for !c.ShouldStop() {
				if err := sess.RunTargets(op); err != nil {
					if isBenignShutdown(err) {
						return nil
					}
					return err
				}
			}
			return nil
		})
	}
}

// ErrStopped is returned by helpers when the coordinator stopped first.
var ErrStopped = errors.New("train: coordinator stopped")
