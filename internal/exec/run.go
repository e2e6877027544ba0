package exec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// RunParams supplies the per-step inputs of Executable.Run.
type RunParams struct {
	// FeedValues are the fed tensors, parallel to the feeds given to Compile.
	FeedValues []*tensor.Tensor
	// Resources locates the device's stateful objects.
	Resources ops.Resources
	// Rendezvous serves Send/Recv kernels (may be nil for local graphs).
	Rendezvous ops.Rendezvous
	// StepID scopes rendezvous keys; concurrent steps must use distinct
	// IDs (§3.2).
	StepID int64
	// Abort, if non-nil, cancels the step from outside (e.g. the master
	// aborting all partitions after a peer failure).
	Abort <-chan struct{}
}

// Run executes one step and returns the fetched tensors, in the order the
// fetches were given to Compile. Multiple Runs may execute concurrently on
// one Executable; each borrows an isolated step state from the
// executable's pool and returns it on completion.
func (ex *Executable) Run(p RunParams) ([]*tensor.Tensor, error) {
	if len(p.FeedValues) != len(ex.feeds) {
		return nil, fmt.Errorf("exec: %d feed values for %d feeds", len(p.FeedValues), len(ex.feeds))
	}
	for i, t := range p.FeedValues {
		spec := ex.feeds[i].Spec()
		if t == nil {
			return nil, fmt.Errorf("exec: feed %v is nil", ex.feeds[i])
		}
		if t.DType() != spec.DType {
			return nil, fmt.Errorf("exec: feed %v has dtype %v, edge carries %v", ex.feeds[i], t.DType(), spec.DType)
		}
		if spec.Shape.IsFullyDefined() && !t.Shape().Equal(spec.Shape) {
			return nil, fmt.Errorf("exec: feed %v has shape %v, edge requires %v", ex.feeds[i], t.Shape(), spec.Shape)
		}
	}
	s := ex.getStep(p)
	s.run()
	err := s.stepErr()
	var out []*tensor.Tensor
	if err == nil {
		out = make([]*tensor.Tensor, len(ex.fetches))
		for i, plan := range ex.fetchPlan {
			if plan.fed {
				out[i] = p.FeedValues[plan.feedIdx]
				continue
			}
			if !s.fetchSet[i] {
				err = fmt.Errorf("exec: fetch %v was never produced", ex.fetches[i])
				break
			}
			v := s.fetched[i]
			if v.Dead {
				err = fmt.Errorf("exec: fetch %v is dead (untaken conditional branch)", ex.fetches[i])
				break
			}
			if v.Tensor == nil {
				err = fmt.Errorf("exec: fetch %v is a reference, not a tensor; fetch through a Read op", ex.fetches[i])
				break
			}
			out[i] = v.Tensor
		}
	}
	ex.putStep(s)
	// A failed or aborted step may have left gradient stacks pushed but never
	// popped (§4.1), and a value pushed with a count must not outlive the
	// step's counts: drop what the step left on its stacks.
	if sr, ok := p.Resources.(ops.StackResources); ok && (err != nil || ex.stackCounts) {
		sr.DropStepStacks(p.StepID)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// workItem identifies one node execution: the node, the (frame, iteration)
// it runs in, and whether it runs dead, decided when its last input arrived.
type workItem struct {
	node int
	f    *frameInstance
	it   *iterState
	dead bool
}

// step is the per-Run execution state. Steps are pooled: the root frame
// restarts its single iteration from the recycled state, and loop frames
// recycle their instances (and through them their iteration states) via
// frameFree.
type step struct {
	ex *Executable
	p  RunParams

	// free holds the buffers whose last consumer has run (recycle), by
	// dtype and element count, for ctx.Alloc to hand out again. Unlike
	// everything else here it survives putStep: keeping the buffers across
	// Runs is what removes steady-state allocations. bufMu is a leaf lock.
	bufMu sync.Mutex
	free  map[bufKey][]*tensor.Tensor
	alloc tensor.Alloc // AllocOutput, bound once so contexts take it for free

	// The root frame instance, and finished loop-frame instances by static
	// frame index, kept across steps (freeMu: instances are taken and
	// returned under different frame locks).
	root      *frameInstance
	freeMu    sync.Mutex
	frameFree [][]*frameInstance

	// counts holds the step's counts of readers still to run by the handle
	// ops.Value.Count carries (from 1; nCounts is the last one given out), in
	// tables of 64, 64, 128, 256 … entries, made on first use and kept with
	// the pooled step, so that an entry never moves.
	counts  [16]atomic.Pointer[[]readers]
	nCounts atomic.Int64

	// rc is the Run goroutine's scratch. It rides in the pooled step so a
	// steady-state Run does not allocate it; putStep clears it.
	rc runCtx

	// fetched[i] is written by the unique producer of fetch i (slots are
	// preassigned at compile time); fetchSet marks delivery.
	fetched  []ops.Value
	fetchSet []bool

	outstanding atomic.Int64

	abort   chan struct{}
	done    chan struct{}
	errOnce sync.Once
	// errMu guards err: an external abort may call fail concurrently with
	// the step completing normally, so the Run goroutine cannot rely on
	// the done-channel close to order the write.
	errMu   sync.Mutex
	err     error
	aborted atomic.Bool
	// forwarder joins the external-abort watcher goroutine before the step
	// returns to the pool, so a late abort can never touch recycled state.
	forwarder sync.WaitGroup
}

func (s *step) fail(err error) {
	s.errOnce.Do(func() {
		s.errMu.Lock()
		s.err = err
		s.errMu.Unlock()
		s.aborted.Store(true)
		close(s.abort)
	})
}

// stepErr returns the step's recorded failure, if any.
func (s *step) stepErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// run executes the step to completion on the calling goroutine plus the
// executable's shared worker pool. The caller's goroutine seeds the roots,
// keeps one that cannot block and runs its chain inline, and then helps
// drain the shared queue until the step completes, so a single-threaded
// step never pays a goroutine handoff.
func (s *step) run() {
	if ab := s.p.Abort; ab != nil {
		stepID := s.p.StepID
		s.forwarder.Add(1)
		go func() {
			defer s.forwarder.Done()
			select {
			case <-ab:
				s.fail(fmt.Errorf("exec: step %d aborted by caller", stepID))
			case <-s.done:
			}
		}()
	}
	// Token guarding the kickoff so outstanding cannot hit zero while
	// roots are still being seeded. No other goroutine holds work of this
	// step yet, so seeding needs no frame lock.
	s.outstanding.Add(1)
	rc := &s.rc
	ready := s.seedRoots(rc.ready[:0])
	rc.ready = ready[:0]
	if w, ok := s.dispatch(ready); ok {
		s.process(w, rc)
	}
	s.finish(1)
	// Help drain the shared queue until this step completes. Any step's
	// Run goroutine is a consumer of last resort, so queued work always
	// makes progress even with every pool worker idle or busy. The
	// non-blocking done check first gives completion priority: a finished
	// step returns its result instead of adopting another step's chain.
	for {
		select {
		case <-s.done:
			s.forwarder.Wait()
			return
		default:
		}
		select {
		case <-s.done:
			s.forwarder.Wait()
			return
		case it := <-s.ex.queue:
			s.ex.runItem(it, rc)
		}
	}
}

// finish releases n outstanding tokens and completes the step at zero.
func (s *step) finish(n int64) {
	if s.outstanding.Add(-n) == 0 {
		close(s.done)
	}
}

// initCtx fills the step-invariant fields of a reusable op context.
func (s *step) initCtx(ctx *ops.OpContext) {
	ctx.Resources = s.p.Resources
	ctx.Rendezvous = s.p.Rendezvous
	ctx.StepID = s.p.StepID
	ctx.Abort = s.abort
	ctx.Alloc = s.alloc
}

// bufKey is a free list's key: what a buffer can be viewed as, its element
// count and dtype in one word, which the map hashes fast.
type bufKey uint64

func keyOf(dt tensor.DType, elems int) bufKey { return bufKey(elems)<<8 | bufKey(dt) }

// AllocOutput is every kernel's ctx.Alloc: a buffer of the right dtype and
// size from the step's free list, else a new one. A popped buffer
// leaves the list's backing array too, or the pooled step would keep alive
// a tensor that the caller fetched.
func (s *step) AllocOutput(dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	k := keyOf(dt, shape.NumElements())
	s.bufMu.Lock()
	if l := s.free[k]; len(l) > 0 {
		t := l[len(l)-1]
		l[len(l)-1] = nil
		s.free[k] = l[:len(l)-1]
		s.bufMu.Unlock()
		return t.ViewAs(shape)
	}
	s.bufMu.Unlock()
	return tensor.New(dt, shape)
}

// readers counts one buffer's readers still to run, and names the variable
// it goes back to if it is a lease (markRecyclable).
type readers struct {
	left atomic.Int32
	ret  *ops.Variable
}

// newCount starts a count of n readers and returns its handle, or 0 once the
// table is full: that buffer is left to the collector, as is any whose count
// a dropped input or a failed step leaves above zero.
func (s *step) newCount(n int32, ret *ops.Variable) uint32 {
	h := s.nCounts.Add(1)
	if h >= 64<<(len(s.counts)-1) {
		return 0
	}
	c := s.count(uint32(h))
	c.ret = ret
	c.left.Store(n)
	return uint32(h)
}

// count returns the entry of handle h, making its table on first use.
func (s *step) count(h uint32) *readers {
	k := bits.Len32(h >> 6)
	t := s.counts[k].Load()
	if t == nil {
		s.bufMu.Lock()
		if t = s.counts[k].Load(); t == nil {
			table := make([]readers, 64<<max(k-1, 0))
			t = &table
			s.counts[k].Store(t)
		}
		s.bufMu.Unlock()
	}
	return &(*t)[int(h)&(len(*t)-1)]
}

// addReaders adds n to the count of v's readers. The one that takes it to
// zero returns a lease to its variable and puts any other buffer on the free
// list.
func (s *step) addReaders(v ops.Value, n int32) {
	if c := s.count(v.Count); c.left.Add(n) == 0 {
		if c.ret != nil {
			c.ret.Return(v.Tensor)
		} else {
			s.recycle(v.Tensor)
		}
	}
}

// recycle puts t, whose last reader has run, on the free list. The count's
// atomic chain orders every earlier reader's read before the push, and bufMu
// the push before the next AllocOutput that returns t; no reader can receive
// t as its own output, since it is only recycled after the last one's kernel
// has returned.
func (s *step) recycle(t *tensor.Tensor) {
	k := keyOf(t.DType(), t.NumElements())
	s.bufMu.Lock()
	s.free[k] = append(s.free[k], t)
	s.bufMu.Unlock()
}

// Evaluator returns a graph.Evaluator backed by this package's kernels; the
// master uses it for constant folding (§5).
func Evaluator(deviceType string, resources ops.Resources) graph.Evaluator {
	return func(n *graph.Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
		kernel, err := ops.LookupKernel(n.Op(), deviceType)
		if err != nil {
			return nil, err
		}
		if ops.MayBlock(n.Op()) || n.Stateful() {
			return nil, fmt.Errorf("exec: op %s cannot be folded", n.Op())
		}
		ctx := &ops.OpContext{
			Node:      n,
			Inputs:    make([]ops.Value, len(inputs)),
			Outputs:   make([]ops.Value, n.NumOutputs()),
			Resources: resources,
			Alloc:     tensor.New,
		}
		for i, t := range inputs {
			ctx.Inputs[i] = ops.Value{Tensor: t}
		}
		if err := kernel(ctx); err != nil {
			return nil, err
		}
		out := make([]*tensor.Tensor, len(ctx.Outputs))
		for i, v := range ctx.Outputs {
			if v.Tensor == nil {
				return nil, fmt.Errorf("exec: fold of %s produced a non-tensor output", n.Name())
			}
			out[i] = v.Tensor
		}
		return out, nil
	}
}
