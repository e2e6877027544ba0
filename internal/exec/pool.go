package exec

import (
	"sync"
	"time"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// This file holds the executable-lifetime run-time machinery: the
// persistent worker pool shared by every step of one Executable and the
// sync.Pool of reusable step states. Together they move the executor's
// per-step fixed costs (goroutine spawns, per-node slice and context
// allocations) out of the Run hot path, which is what the paper's §5
// dispatch-rate target demands.

// poolItem is one unit of queued work: a node execution tagged with the
// step it belongs to, so steps of one executable share a single queue.
type poolItem struct {
	s *step
	w workItem
}

// runCtx is the per-goroutine scratch state a worker reuses across every
// item it processes: one op context, an output buffer and the list of nodes
// the last execution made ready. Kernels must not retain either (see
// ops.OpContext).
type runCtx struct {
	ctx   ops.OpContext
	outs  []ops.Value
	ready []workItem
}

// workerIdleTimeout is how long a pool worker stays parked on an empty
// queue before exiting. It is long enough to keep workers hot across
// back-to-back steps (a training loop) and short enough that idle
// executables shed their goroutines.
const workerIdleTimeout = 200 * time.Millisecond

// runItem executes one queued item with the worker's reusable context.
func (ex *Executable) runItem(it poolItem, rc *runCtx) {
	it.s.process(it.w, rc)
	it.s.finish(1)
}

// ensureWorker spawns a pool worker if the queue has work and the pool is
// below its size cap. Callers invoke it after every enqueue; the CAS keeps
// the population bounded by maxWorkers.
func (ex *Executable) ensureWorker() {
	for {
		n := ex.workers.Load()
		if n >= ex.maxWorkers || len(ex.queue) == 0 {
			return
		}
		if ex.workers.CompareAndSwap(n, n+1) {
			go ex.workerLoop()
			return
		}
	}
}

// workerLoop drains the shared queue until it has been idle for
// workerIdleTimeout. Workers persist across steps: a steady stream of Runs
// keeps the same goroutines (and their scratch contexts) hot.
func (ex *Executable) workerLoop() {
	var rc runCtx
	idle := time.NewTimer(workerIdleTimeout)
	defer idle.Stop()
	for {
		var it poolItem
		select {
		case it = <-ex.queue:
		default:
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(workerIdleTimeout)
			select {
			case it = <-ex.queue:
			case <-idle.C:
				ex.workers.Add(-1)
				// Re-check after deregistering: a dispatcher that saw
				// this worker as alive may have enqueued concurrently.
				// (Run goroutines also drain the queue, so even a lost
				// item here would still make progress.)
				select {
				case it = <-ex.queue:
					ex.workers.Add(1)
				default:
					return
				}
			}
		}
		ex.runItem(it, &rc)
	}
}

// getStep borrows a step state for one Run. A recycled step restarts the
// root frame's one iteration from its recycled state (counters copied from
// the compile-time prototype, fed tensors written into their precomputed
// slots) and loop frames draw their instances from the step's freelist
// (frame.go), so a steady-state step pays no rebuild costs.
func (ex *Executable) getStep(p RunParams) *step {
	s, _ := ex.stepPool.Get().(*step)
	if s == nil {
		s = &step{ex: ex,
			fetched:   make([]ops.Value, len(ex.fetches)),
			fetchSet:  make([]bool, len(ex.fetches)),
			free:      map[bufKey][]*tensor.Tensor{},
			root:      &frameInstance{info: ex.frames[0], children: map[childKey]*frameInstance{}},
			frameFree: make([][]*frameInstance, len(ex.frames)),
		}
		s.alloc = s.AllocOutput
	} else {
		s.errOnce = sync.Once{}
		s.err = nil
		s.aborted.Store(false)
	}
	s.p = p
	s.abort = make(chan struct{})
	s.done = make(chan struct{})
	s.newIteration(s.root, nil)
	return s
}

// putStep releases a step back to the pool. By the time Run calls it the
// step has fully quiesced: the outstanding-token count reached zero (no
// queued or in-flight work references it) and the abort forwarder has been
// joined. Clearing the root iteration's inputs, the fetch slots and the Run
// goroutine's scratch here both drops tensor references promptly and hands
// the next borrower a zeroed state; s.free is deliberately NOT cleared — the
// recycled buffers are reused by the next Run. Loop frames have already
// retired themselves; only a failed step (or a loop that never finished)
// leaves instances behind, and those go to the garbage collector.
func (ex *Executable) putStep(s *step) {
	s.p = RunParams{}
	it := s.root.ring[0]
	clear(it.in)
	s.root.free, s.root.n = append(s.root.free[:0], it), 0
	clear(s.root.children)
	// The scratch may also have run other steps' queued items.
	s.rc.ctx = ops.OpContext{}
	clear(s.rc.outs[:cap(s.rc.outs)])
	clear(s.rc.ready[:cap(s.rc.ready)])
	clear(s.fetched)
	clear(s.fetchSet)
	ex.stepPool.Put(s)
}
