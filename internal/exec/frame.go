package exec

import (
	"fmt"
	"sync"

	"repro/internal/ops"
)

// Every node runs in a (frame, iteration) context (§3.4, whitepaper §4.4); a
// graph without loops is the root frame's single iteration. Frames are
// static — assignFrames gives each node the frame it executes in and lays
// out, per frame, where a node's counters and inputs sit inside one
// iteration's state — so the run-time structures below are dense slices
// indexed by those compile-time offsets.

// frameInfo is the compile-time layout of one static frame: the root, or
// the loop named by an Enter's frame_name.
type frameInfo struct {
	name   string
	parent int32 // static frame its Enters read from; -1 for the root

	// One iteration's state: three int32 per node (pending inputs, pending
	// control inputs, flags), then one per recyclable value (its unfinished
	// consumers), reset by copy from proto, and numIn inputs.
	proto     []int32
	numIn     int32
	feedSlots []feedSlot
	// An instance can finish only after each of its Enter nodes has run;
	// constEnters are the loop-invariant ones, in f.consts order.
	enters      int32
	constEnters []int32
}

// Per-node flag bits of an iteration state.
const (
	flagScheduled = 1 << iota // handed to a worker; later inputs are dropped
	flagDead                  // a dead input arrived (kills a non-Merge node)
	flagLive                  // a live data input arrived (fires a Merge)
)

const (
	frameUnresolved int32 = -1 - iota
	frameResolving
)

// assignFrames resolves the static frame of every node: an Enter opens the
// frame it names inside the frame its input lives in, an Exit hands its
// value to that parent, and every other node executes where its inputs are
// delivered (the root, if it has none). A node whose inputs arrive in two
// different frames could never fire — its inputs would be delivered to
// different (frame, iteration) addresses — so that is a compile error.
func (ex *Executable) assignFrames() error {
	ex.frames = []*frameInfo{{name: "<root>", parent: -1}}
	byName := map[string]int32{}
	for _, en := range ex.nodes {
		en.frame = frameUnresolved
	}
	var resolve func(li int) (int32, error)
	// deliveredIn is the frame node li's outputs are delivered in.
	deliveredIn := func(li int) (int32, error) {
		f, err := resolve(li)
		if err == nil && ex.nodes[li].isExit {
			f = ex.frames[f].parent
		}
		return f, err
	}
	resolve = func(li int) (int32, error) {
		en := ex.nodes[li]
		if en.frame >= 0 {
			return en.frame, nil
		}
		if en.frame == frameResolving {
			return 0, fmt.Errorf("exec: %s is on a cycle that does not pass through a NextIteration back edge", en.node.Name())
		}
		en.frame = frameResolving
		// in is the frame the inputs seen so far arrive in and from the
		// last of them: a data slot, or -1-i for control input i.
		in, from, seen := int32(0), 0, false
		name := func(i int) string {
			if i < 0 {
				return "^" + en.node.ControlInputs()[-1-i].Name()
			}
			return en.node.Inputs()[i].String()
		}
		see := func(f int32, i int) error {
			if seen && f != in {
				return fmt.Errorf("exec: %s (%s) consumes %s in frame %s and %s in frame %s; a value enters a loop only through an Enter",
					en.node.Name(), en.node.Op(), name(from), ex.frames[in].name, name(i), ex.frames[f].name)
			}
			in, from, seen = f, i, true
			return nil
		}
		for slot, src := range en.inputs {
			f := int32(0)
			if !src.fed {
				if en.isMerge && ex.nodes[src.producer].isNextIter {
					continue // back edge: checked once both ends are resolved
				}
				var err error
				if f, err = deliveredIn(src.producer); err != nil {
					return 0, err
				}
			}
			if err := see(f, slot); err != nil {
				return 0, err
			}
		}
		for i, c := range en.node.ControlInputs() {
			f, err := deliveredIn(ex.localIdx[c.ID()])
			if err == nil {
				err = see(f, -1-i)
			}
			if err != nil {
				return 0, err
			}
		}
		if en.isEnter {
			name := en.node.AttrString("frame_name", "")
			child, ok := byName[name]
			if !ok {
				child = int32(len(ex.frames))
				byName[name] = child
				ex.frames = append(ex.frames, &frameInfo{name: name, parent: in})
			} else if p := ex.frames[child].parent; p != in {
				return 0, fmt.Errorf("exec: frame %s is entered from both frame %s and frame %s (at %s)",
					name, ex.frames[p].name, ex.frames[in].name, en.node.Name())
			}
			in = child
		}
		if in == 0 && (en.isExit || en.isNextIter) {
			return 0, fmt.Errorf("exec: %s (%s) is outside any loop frame", en.node.Name(), en.node.Op())
		}
		en.frame = in
		return in, nil
	}
	for li, en := range ex.nodes {
		if _, err := resolve(li); err != nil {
			return err
		}
		fi := ex.frames[en.frame]
		en.stOff, en.frameIn = int32(len(fi.proto)), fi.numIn
		fi.proto = append(fi.proto, en.initialPending, en.initialCtl, 0)
		fi.numIn += int32(len(en.inputs))
		for slot, src := range en.inputs {
			if src.fed {
				fi.feedSlots = append(fi.feedSlots, feedSlot{arenaIdx: en.frameIn + int32(slot), feedIdx: int32(src.feedIdx)})
			} else if p := ex.nodes[src.producer]; en.isMerge && p.isNextIter {
				if f, err := resolve(src.producer); err != nil {
					return err
				} else if f != en.frame {
					return fmt.Errorf("exec: back edge %s -> %s crosses from frame %s into frame %s",
						p.node.Name(), en.node.Name(), ex.frames[f].name, fi.name)
				}
			}
		}
		if en.isEnter {
			fi.enters++
			if en.enterConst {
				en.constSlot = int32(len(fi.constEnters))
				fi.constEnters = append(fi.constEnters, int32(li))
			}
		}
	}
	return nil
}

// iterState is the execution state of one iteration of a frame instance:
// the flat per-node counters and the input arena laid out by assignFrames.
type iterState struct {
	iter int
	st   []int32
	in   []ops.Value
	// outstanding counts this iteration's scheduled, unfinished node
	// executions and children its live child frames; with both at zero the
	// iteration is quiescent.
	outstanding, children int32
}

// childKey addresses a child frame instance within its parent.
type childKey struct {
	frame int32
	iter  int
}

// frameInstance is a live frame (§3.4): one dynamic instance of a static
// frame, entered from a particular iteration of its parent. Iterations are
// tags, several may be in flight, and the instance holds state only for
// those: an iteration is retired as soon as it and every earlier one are
// quiescent, and the instance itself when the last iteration retires.
type frameInstance struct {
	info     *frameInfo
	key      childKey
	parent   *frameInstance
	parentIt *iterState

	// mu guards everything below and the iteration states themselves. The
	// only nesting is parent before child (an Enter delivery).
	mu sync.Mutex
	// ring holds the live iterations base..base+n-1, iteration i at
	// ring[i&(len(ring)-1)]; it doubles when a new iteration finds it full.
	ring    []*iterState
	base, n int
	free    []*iterState
	// consts records the loop-invariant Enter values that have arrived
	// (zero Value: not yet); every iteration, started before or after,
	// receives each exactly once.
	consts        []ops.Value
	children      map[childKey]*frameInstance
	pendingEnters int32
}

// newIteration starts iteration f.base+f.n (f.mu held): a recycled state is
// reset to the prototype, fed inputs are written, and the loop invariants
// recorded so far are replayed into it.
func (s *step) newIteration(f *frameInstance, ready []workItem) (*iterState, []workItem) {
	fi := f.info
	var it *iterState
	if n := len(f.free); n > 0 {
		it, f.free = f.free[n-1], f.free[:n-1]
	} else {
		it = &iterState{st: make([]int32, len(fi.proto)), in: make([]ops.Value, fi.numIn)}
		s.ex.iterStates.Add(1)
	}
	copy(it.st, fi.proto)
	for _, fs := range fi.feedSlots {
		it.in[fs.arenaIdx] = ops.Value{Tensor: s.p.FeedValues[fs.feedIdx]}
	}
	it.iter, it.outstanding, it.children = f.base+f.n, 0, 0
	if f.n == len(f.ring) {
		ring := make([]*iterState, max(4, 2*len(f.ring)))
		for i := f.base; i < f.base+f.n; i++ {
			ring[i&(len(ring)-1)] = f.ring[i&(len(f.ring)-1)]
		}
		f.ring = ring
	}
	f.ring[it.iter&(len(f.ring)-1)] = it
	f.n++
	for slot, v := range f.consts {
		if v != (ops.Value{}) {
			ready = s.fanOut(f, it, s.ex.nodes[fi.constEnters[slot]], f.consts[slot:slot+1], v.Dead, ready)
		}
	}
	return it, ready
}

// retire recycles every leading quiescent iteration (f.mu held) and reports
// whether that finished the instance. Retiring in order is what makes
// quiescence final: nothing can reach an iteration once its predecessors
// are gone, its child frames have finished and (for iteration 0) every
// Enter has run.
func (f *frameInstance) retire() bool {
	if f.parent == nil || f.pendingEnters > 0 {
		return false
	}
	for ; f.n > 0; f.base, f.n = f.base+1, f.n-1 {
		it := f.ring[f.base&(len(f.ring)-1)]
		if it.outstanding > 0 || it.children > 0 {
			return false
		}
		clear(it.in)
		f.free = append(f.free, it)
	}
	return true
}

// childFrame returns the instance of static frame idx entered from
// iteration it of parent (parent.mu held), creating it on first use.
func (s *step) childFrame(parent *frameInstance, it *iterState, idx int32) *frameInstance {
	key := childKey{idx, it.iter}
	if f := parent.children[key]; f != nil {
		return f
	}
	var f *frameInstance
	s.freeMu.Lock()
	if free := s.frameFree[idx]; len(free) > 0 {
		f, s.frameFree[idx] = free[len(free)-1], free[:len(free)-1]
	}
	s.freeMu.Unlock()
	fi := s.ex.frames[idx]
	if f == nil {
		f = &frameInstance{info: fi, consts: make([]ops.Value, len(fi.constEnters)), children: map[childKey]*frameInstance{}}
	}
	f.key, f.parent, f.parentIt, f.pendingEnters = key, parent, it, fi.enters
	s.newIteration(f, nil)
	parent.children[key] = f
	it.children++
	return f
}

// releaseFrames returns the finished instance f to the step's pool and
// retires what that lets finish in its ancestors. No lock is held.
func (s *step) releaseFrames(f *frameInstance) {
	for done := true; done; {
		p := f.parent
		p.mu.Lock()
		delete(p.children, f.key)
		f.parentIt.children--
		done = p.retire()
		p.mu.Unlock()
		clear(f.consts)
		f.base = 0
		s.freeMu.Lock()
		s.frameFree[f.key.frame] = append(s.frameFree[f.key.frame], f)
		s.freeMu.Unlock()
		f = p
	}
}

// deliver hands v to input slot of node c — or, when slot is negative, a
// control signal that is dead iff v is — in iteration it of f (f.mu held),
// and appends c to ready once it can run. An Enter is re-addressed into
// iteration 0 of the child frame it opens.
func (s *step) deliver(f *frameInstance, it *iterState, c, slot int, v ops.Value, ready []workItem) []workItem {
	en := s.ex.nodes[c]
	var child *frameInstance
	if en.isEnter {
		child = s.childFrame(f, it, en.frame)
		child.mu.Lock()
		f, it = child, child.ring[0]
	}
	st := it.st[en.stOff : en.stOff+3 : en.stOff+3]
	if st[2]&flagScheduled == 0 {
		st[0]--
		if slot < 0 {
			st[1]--
		} else {
			it.in[en.frameIn+int32(slot)] = v
		}
		if v.Dead {
			st[2] |= flagDead
		} else if slot >= 0 {
			st[2] |= flagLive
		}
		// A Merge fires on its first live input once its control inputs are
		// in (non-strict, §3.4), or dead when every input has arrived dead.
		if st[0] == 0 || (en.isMerge && st[1] == 0 && st[2]&flagLive != 0) {
			dead := st[2]&flagDead != 0
			if en.isMerge {
				dead = st[2]&flagLive == 0
			}
			st[2] |= flagScheduled
			// A dead Exit is suppressed, not propagated: every non-final
			// iteration produces one on the Exit's Switch branch, and
			// forwarding it would race the real result. A dead
			// NextIteration (the loop has ended) likewise starts no
			// iteration. Neither has anything to do, so neither is run.
			if !(dead && (en.isExit || en.isNextIter)) {
				it.outstanding++
				ready = append(ready, workItem{node: c, f: f, it: it, dead: dead})
			}
		}
	}
	if child != nil {
		child.mu.Unlock()
	}
	return ready
}

// fanOut delivers en's outputs to their consumers, and its completion to
// its control consumers, in iteration it of f (f.mu held).
func (s *step) fanOut(f *frameInstance, it *iterState, en *execNode, outputs []ops.Value, dead bool, ready []workItem) []workItem {
	for o, consumers := range en.outConsumers {
		for _, c := range consumers {
			ready = s.deliver(f, it, c.node, c.slot, outputs[o], ready)
		}
	}
	for _, c := range en.ctlConsumers {
		ready = s.deliver(f, it, c, -1, ops.Value{Dead: dead}, ready)
	}
	return ready
}

// seedRoots schedules the nodes that are ready at step start. An Enter is a
// root when its only input is fed (a placeholder captured into a loop); it
// still executes in the child frame it opens.
func (s *step) seedRoots(ready []workItem) []workItem {
	for _, r := range s.ex.roots {
		en := s.ex.nodes[r]
		f := s.root
		if en.isEnter {
			f = s.childFrame(s.root, s.root.ring[0], en.frame)
		}
		it := f.ring[0]
		it.outstanding++
		ready = append(ready, workItem{node: r, f: f, it: it})
	}
	return ready
}

// dispatch keeps the first ready node that cannot block for the calling
// goroutine and hands the others to the pool.
func (s *step) dispatch(ready []workItem) (next workItem, ok bool) {
	for _, w := range ready {
		if !ok && !s.ex.nodes[w.node].mayBlock {
			next, ok = w, true
		} else {
			s.enqueue(w)
		}
	}
	return next, ok
}

// enqueue schedules a ready node; it owns one outstanding token.
// Blocking kernels get private goroutines so they cannot starve the shared
// pool; a full queue falls back to inline execution.
func (s *step) enqueue(w workItem) {
	s.outstanding.Add(1)
	if !s.ex.nodes[w.node].mayBlock {
		select {
		case s.ex.queue <- poolItem{s: s, w: w}:
			s.ex.ensureWorker()
			return
		default:
		}
		// The caller is still reading its own runCtx, so this reentrant
		// chain gets a fresh one.
		var rc runCtx
		s.process(w, &rc)
		s.finish(1)
		return
	}
	go func() {
		var rc runCtx
		s.process(w, &rc)
		s.finish(1)
	}()
}

// deadSend is the input a dead Send sends (the kernel only reads it).
var deadSend = [1]ops.Value{{Dead: true}}

// process executes the scheduled node w and then, run-to-completion style,
// one successor its completion made ready, until a node readies nothing this
// goroutine may run: linear segments of the graph become a tight loop on one
// goroutine with no queue round-trips. The input arena needs no lock:
// the slots were written before w was scheduled and nothing writes them
// after, and the iteration cannot retire while w is outstanding.
func (s *step) process(w workItem, rc *runCtx) {
	s.initCtx(&rc.ctx)
	for ok := true; ok && !s.aborted.Load(); {
		en := s.ex.nodes[w.node]
		nOut := len(en.outConsumers)
		if cap(rc.outs) < nOut {
			rc.outs = make([]ops.Value, nOut)
		}
		outputs := rc.outs[:nOut]
		if w.dead && !en.isSend {
			for i := range outputs {
				outputs[i] = ops.Value{Dead: true}
			}
		} else {
			clear(outputs)
			hi := en.frameIn + int32(len(en.inputs))
			rc.ctx.Node, rc.ctx.Private = en.node, en.private
			rc.ctx.Inputs = w.it.in[en.frameIn:hi:hi]
			if w.dead {
				// A dead Send still sends — a dead value — so its Recv on
				// the other device outputs dead instead of waiting forever.
				rc.ctx.Inputs = deadSend[:]
			}
			rc.ctx.Outputs = outputs
			if err := en.kernel(&rc.ctx); err != nil {
				s.fail(fmt.Errorf("exec: %s (%s): %w", en.node.Name(), en.node.Op(), err))
				return
			}
			// A Recv that got a dead value is a dead node: its control
			// consumers (a cross-device control edge's) turn dead too.
			if en.isRecv && outputs[0].Dead {
				w.dead = true
			}
		}
		w, ok = s.propagate(w, en, outputs, rc)
	}
}

// propagate delivers the outputs of the finished node w, applying the frame
// transitions of Enter/Exit/NextIteration, retires what its completion left
// quiescent, and returns the next node for this goroutine. Consumers copy
// the values, so the caller may reuse outputs afterwards.
func (s *step) propagate(w workItem, en *execNode, outputs []ops.Value, rc *runCtx) (workItem, bool) {
	f, it := w.f, w.it
	df, dit := f, it
	if en.isExit {
		df, dit = f.parent, f.parentIt
	}
	ready := rc.ready[:0]
	df.mu.Lock()
	if en.isNextIter {
		if next := it.iter + 1; next < f.base+f.n {
			dit = f.ring[next&(len(f.ring)-1)]
		} else {
			dit, ready = s.newIteration(f, ready)
		}
	}
	// A fetch observes the value as delivered in the root frame; each slot
	// has one producer, which runs there once.
	if df == s.root {
		for _, ft := range en.fetches {
			s.fetched[ft.fetchIdx] = outputs[ft.outIdx]
			s.fetchSet[ft.fetchIdx] = true
		}
	}
	ready = s.fanOut(df, dit, en, outputs, w.dead, ready)
	if en.enterConst {
		// Loop invariant (§3.4): record it for iterations yet to start and
		// hand it to those already running beside iteration 0.
		f.consts[en.constSlot] = outputs[0]
		for i := 1; i < f.n; i++ {
			ready = s.fanOut(f, f.ring[i&(len(f.ring)-1)], en, outputs, w.dead, ready)
		}
	}
	// Deliveries first, completion second: until it.outstanding drops, w's
	// iteration — and through it every ancestor — cannot retire.
	if df != f {
		df.mu.Unlock()
		f.mu.Lock()
	}
	it.outstanding--
	if en.isEnter {
		f.pendingEnters--
	}
	// w has read its inputs; the last reader of a recyclable one frees it
	// (markRecyclable): a Read's lease goes back to the variable on the Read's
	// reference input, any other buffer onto the free list. A dead producer
	// left no tensor to free, and a rank-0 one is never put on the free list:
	// a kernel may output a shared scalar (ops/behavior.go) that the list
	// would hand out to be rewritten for the whole process.
	for _, r := range en.recycle {
		if it.st[r.ctr]--; it.st[r.ctr] == 0 {
			switch t := it.in[en.frameIn+r.slot].Tensor; {
			case t == nil:
			case r.ref >= 0:
				it.in[r.ref].Ref.Var.Return(t)
			case t.Rank() > 0:
				s.recycle(t)
			}
		}
	}
	done := f.retire()
	f.mu.Unlock()
	if done {
		s.releaseFrames(f)
	}
	w, ok := s.dispatch(ready)
	rc.ready = ready[:0]
	return w, ok
}
