package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// RunParams supplies the per-step inputs of Executable.Run.
type RunParams struct {
	// FeedValues are the fed tensors, parallel to Executable.Feeds().
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
	if err != nil {
		// A failed or aborted step may have left gradient stacks pushed but
		// never popped (§4.1); drop them so the device does not accumulate
		// saved intermediates across failed steps.
		if sr, ok := p.Resources.(ops.StackResources); ok {
			sr.DropStepStacks(p.StepID)
		}
		return nil, err
	}
	return out, nil
}

// workItem identifies one node execution. The fast path uses node alone;
// the frame-aware path adds the (frame, iteration) the node runs in and
// whether it runs dead, decided when its last input arrived.
type workItem struct {
	node int
	f    *frameInstance
	it   *iterState
	dead bool
}

// step is the per-Run execution state. Fast-path steps (no control flow)
// are pooled and arena-backed: all input/output values live in two flat
// slices laid out at compile time, and resetting a recycled step is a
// couple of copies and clears. Frame-aware steps are pooled too: the root
// frame's single iteration is reset the same way, and loop frames recycle
// their instances (and through them their iteration states) via frameFree.
type step struct {
	ex *Executable
	p  RunParams

	// Fast path (no control flow): atomic dense pending counters plus the
	// input/output value arenas (see Executable.inOff/outOff).
	fastPending []int32
	inArena     []ops.Value
	outArena    []ops.Value
	// bufs is the static memory plan's buffer table (plan.go), indexed by
	// Executable.bufPlan. Unlike the arenas it survives putStep: keeping
	// the tensors across Runs is what removes steady-state allocations.
	bufs []*tensor.Tensor

	// Frame-aware path (frame.go): the root frame instance, and finished
	// loop-frame instances by static frame index, kept across steps (freeMu:
	// instances are taken and returned under different frame locks).
	root      *frameInstance
	freeMu    sync.Mutex
	frameFree [][]*frameInstance

	// fetched[i] is written by the unique producer of fetch i (lock-free:
	// slots are preassigned at compile time); fetchSet marks delivery.
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
// executes one root chain inline, and then helps drain the shared queue
// until the step completes, so a single-threaded step never pays a
// goroutine handoff.
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
	// roots are still being seeded.
	s.outstanding.Add(1)
	var rc runCtx
	if s.ex.hasCtrlFlow {
		// No other goroutine holds work of this step yet, so seeding needs
		// no frame lock.
		if w, ok := s.dispatch(s.seedRoots(rc.ready)); ok {
			s.process(w, &rc)
		}
		s.finish(1)
	} else {
		s.initCtx(&rc.ctx)
		// Keep one non-blocking root for this goroutine; hand the rest to
		// the pool so other workers can start them concurrently.
		inline := -1
		for _, r := range s.ex.roots {
			if inline < 0 && !s.ex.nodes[r].mayBlock {
				inline = r
				continue
			}
			s.enqueueFast(r, &rc.ctx)
		}
		if inline >= 0 {
			s.runChain(inline, &rc.ctx)
		}
		s.finish(1)
	}
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
			s.ex.runItem(it, &rc)
		}
	}
}

// finish releases n outstanding tokens and completes the step at zero.
func (s *step) finish(n int64) {
	if s.outstanding.Add(-n) == 0 {
		close(s.done)
	}
}

// initCtx fills the step-invariant fields of a reusable op context. The
// allocator is wired only for planned executables (fast path); contexts are
// reused across steps by pool workers, so an unplanned step must clear it.
func (s *step) initCtx(ctx *ops.OpContext) {
	ctx.Resources = s.p.Resources
	ctx.Rendezvous = s.p.Rendezvous
	ctx.StepID = s.p.StepID
	ctx.Abort = s.abort
	if s.ex.planned {
		ctx.Allocator = s
	} else {
		ctx.Allocator = nil
	}
}

// AllocOutput implements ops.OutputAllocator: output slots covered by the
// static memory plan draw from the step's persistent buffer table (reusing
// the tensor left by a dead predecessor or a previous Run); everything else
// heap-allocates as before. The buffer survives putStep on purpose — the
// next Run of this pooled step overwrites it, which is exactly why fetched
// and retained outputs are never planned.
func (s *step) AllocOutput(node int32, outIdx int, dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	bi := s.ex.bufPlan[s.ex.outOff[node]+int32(outIdx)]
	if bi < 0 {
		return tensor.New(dt, shape)
	}
	if t := s.bufs[bi]; t != nil && t.CanHold(dt, shape) {
		return t.ViewAs(shape)
	}
	t := tensor.New(dt, shape)
	s.bufs[bi] = t
	return t
}

// --- fast path (no control flow) -------------------------------------------

// runChain executes node and then, run-to-completion style, any single
// successor its completion made ready: linear segments of the graph become
// a tight loop on one goroutine with no queue round-trips. Extra ready
// successors are handed to the worker pool.
func (s *step) runChain(node int, ctx *ops.OpContext) {
	ex := s.ex
	for node >= 0 {
		if s.aborted.Load() {
			return
		}
		en := ex.nodes[node]
		outputs := s.outArena[ex.outOff[node]:ex.outOff[node+1]:ex.outOff[node+1]]
		ctx.Node = en.node
		ctx.AllocNode = int32(node)
		ctx.Inputs = s.inArena[ex.inOff[node]:ex.inOff[node+1]:ex.inOff[node+1]]
		ctx.Outputs = outputs
		if err := en.kernel(ctx); err != nil {
			s.fail(fmt.Errorf("exec: %s (%s): %w", en.node.Name(), en.node.Op(), err))
			return
		}
		for _, ft := range en.fetches {
			s.fetched[ft.fetchIdx] = outputs[ft.outIdx]
			s.fetchSet[ft.fetchIdx] = true
		}
		next := -1
		for outIdx, consumers := range en.outConsumers {
			v := outputs[outIdx]
			for _, c := range consumers {
				s.inArena[ex.inOff[c.node]+int32(c.slot)] = v
				if atomic.AddInt32(&s.fastPending[c.node], -1) == 0 {
					if next < 0 && !ex.nodes[c.node].mayBlock {
						next = c.node
					} else {
						s.enqueueFast(c.node, ctx)
					}
				}
			}
		}
		for _, c := range en.ctlConsumers {
			if atomic.AddInt32(&s.fastPending[c], -1) == 0 {
				if next < 0 && !ex.nodes[c].mayBlock {
					next = c
				} else {
					s.enqueueFast(c, ctx)
				}
			}
		}
		node = next
	}
}

// enqueueFast schedules a ready fast-path node; it owns one outstanding
// token. Blocking kernels get private goroutines so they cannot starve the
// shared pool; a full queue falls back to inline execution.
func (s *step) enqueueFast(node int, ctx *ops.OpContext) {
	s.outstanding.Add(1)
	if s.ex.nodes[node].mayBlock {
		go func() {
			var rc runCtx
			s.initCtx(&rc.ctx)
			s.runChain(node, &rc.ctx)
			s.finish(1)
		}()
		return
	}
	select {
	case s.ex.queue <- poolItem{s: s, w: workItem{node: node}}:
		s.ex.ensureWorker()
	default:
		// Queue full: run the chain inline rather than block. Reusing the
		// caller's context is safe — the caller rewrites Node/Inputs/
		// Outputs before its next kernel call.
		s.runChain(node, ctx)
		s.finish(1)
	}
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
