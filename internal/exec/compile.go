// Package exec implements the dataflow executor (paper §3.2, §5): it
// schedules the kernels of a pruned, per-device subgraph, supports many
// concurrent steps over the same graph, propagates dead values for
// conditional execution, and maintains loop frames for iteration in the
// style of timely dataflow (§3.4).
//
// A graph is compiled once into an immutable Executable (the "cached
// subgraph" of §3.3/§5). Per-step costs are amortized into compile time:
// every node is assigned the static frame it executes in (a graph without
// loops is the root frame's one iteration), each frame gets a flat layout
// for one iteration's counters and input values, fetch slots are
// preassigned to their producers, and the executable owns a persistent
// worker pool plus a pool of reusable step states, so a steady-state Run
// allocates almost nothing. Steps still never share anything except the
// stateful resources (variables, queues) owned by the device.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/ops"
)

// inputSource describes where one input slot of a node gets its value:
// either from another node's output or from a feed.
type inputSource struct {
	fed      bool
	feedIdx  int // index into the feed list when fed
	producer int // local node index otherwise
	outIdx   int
}

// consumer is a (node, input slot) destination of an output.
type consumer struct {
	node int
	slot int
}

// fetchRef routes one output of a node into its preassigned fetch slot, so
// propagation never scans the fetch plan (each fetch slot has exactly one
// producing node, making the delivery lock-free).
type fetchRef struct {
	fetchIdx int32
	outIdx   int32
}

// feedSlot is a precomputed (input-arena offset, feed index) pair; starting
// an iteration writes the fed tensors straight into its arena.
type feedSlot struct {
	arenaIdx int32
	feedIdx  int32
}

// recycleRef names an input slot of a node whose value is recyclable, and
// where in the iteration state that value's count of unfinished consumers
// sits. ref is the arena index of the producing Read's variable reference
// when the value is a lease, to be returned there, and -1 when it is a buffer
// for the free list.
type recycleRef struct {
	slot int32
	ctr  int32
	ref  int32
}

// execNode is the compiled form of one graph node.
type execNode struct {
	node     *graph.Node
	kernel   ops.Kernel
	mayBlock bool

	inputs       []inputSource
	numControl   int
	outConsumers [][]consumer // per output index
	ctlConsumers []int        // nodes with a control dependency on this node
	fetches      []fetchRef   // fetch slots this node's outputs fill
	recycle      []recycleRef // inputs whose buffer this node may be last to read
	private      bool         // ops.OpContext.Private (markRecyclable)

	// Control-flow classification (§3.4).
	isMerge    bool
	isEnter    bool
	isExit     bool
	isNextIter bool
	isSend     bool
	isRecv     bool
	enterConst bool // loop-invariant Enter

	// initialPending is numDataInputs (minus fed) + numControl.
	initialPending int32
	initialCtl     int32

	// Frame layout (frame.go): the static frame the node executes in, and
	// where its counters, inputs and (for a loop-invariant Enter) recorded
	// value live inside one iteration state of that frame.
	frame     int32
	stOff     int32
	frameIn   int32
	constSlot int32
}

// Executable is an immutable compiled subgraph plus its feed/fetch plan and
// the mutable run-time machinery shared by all of its steps (worker pool,
// step-state pool).
type Executable struct {
	graphRef *graph.Graph
	nodes    []*execNode
	localIdx map[int]int // graph node id -> local index

	feeds   []graph.Endpoint
	feedIdx map[graph.Endpoint]int
	fetches []graph.Endpoint
	// fetchPlan[i] identifies the producer of fetch i: local node + output,
	// or a fed endpoint.
	fetchPlan []inputSource

	roots      []int        // nodes with no unfed inputs and no control deps
	frames     []*frameInfo // static frames, root first
	deviceType string

	// recycled counts the outputs whose buffers return to the step's free
	// list (markRecyclable).
	recycled int

	// Persistent worker pool: one work queue shared by every step of this
	// executable; workers outlive individual steps (see pool.go).
	queue      chan poolItem
	workers    atomic.Int32
	maxWorkers int32
	stepPool   sync.Pool
	// Close closes quit and waits on running; spawnMu orders every worker
	// start before that wait, and closed refuses starts after it.
	spawnMu sync.Mutex
	closed  bool
	quit    chan struct{}
	running sync.WaitGroup

	// iterStates counts the iteration states allocated over all steps
	// (recycled ones excluded); tests pin it.
	iterStates atomic.Int64
}

// Compile prunes the graph for the given feeds/fetches/targets (§3.2) and
// builds the executable form. The deviceType selects kernels.
func Compile(g *graph.Graph, feeds, fetches []graph.Endpoint, targets []*graph.Node, deviceType string) (*Executable, error) {
	if deviceType == "" {
		deviceType = "CPU"
	}
	// Prune, the wiring below and Run's feed checks all index a node's
	// outputs by these endpoints unchecked, and they may come off the wire.
	for _, eps := range [][]graph.Endpoint{feeds, fetches} {
		for _, ep := range eps {
			n := ep.Node
			if n == nil || n.ID() >= g.NumNodes() || g.Node(n.ID()) != n {
				return nil, fmt.Errorf("exec: endpoint %v is not in the graph", ep)
			}
			if ep.Index < 0 || ep.Index >= n.NumOutputs() {
				return nil, fmt.Errorf("exec: endpoint %v indexes output %d of a node with %d outputs", ep, ep.Index, n.NumOutputs())
			}
		}
	}
	set, err := graph.Prune(g, feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	ex := &Executable{
		graphRef:   g,
		localIdx:   make(map[int]int),
		feeds:      append([]graph.Endpoint(nil), feeds...),
		feedIdx:    make(map[graph.Endpoint]int, len(feeds)),
		fetches:    append([]graph.Endpoint(nil), fetches...),
		deviceType: deviceType,
	}
	for i, f := range feeds {
		if _, dup := ex.feedIdx[f]; dup {
			return nil, fmt.Errorf("exec: endpoint %v fed twice", f)
		}
		ex.feedIdx[f] = i
	}

	ids := set.SortedIDs()
	for _, id := range ids {
		n := g.Node(id)
		kernel, mayBlock, err := ops.LookupKernelInfo(n.Op(), deviceType)
		if err != nil {
			return nil, err
		}
		en := &execNode{
			node:         n,
			kernel:       kernel,
			mayBlock:     mayBlock,
			numControl:   0,
			outConsumers: make([][]consumer, n.NumOutputs()),
		}
		switch n.Op() {
		case "Merge":
			en.isMerge = true
		case "Enter":
			en.isEnter = true
			en.enterConst = n.AttrBool("is_constant", false)
		case "Exit":
			en.isExit = true
		case "NextIteration":
			en.isNextIter = true
		case "Send":
			en.isSend = true
		case "Recv":
			en.isRecv = true
		}
		ex.localIdx[id] = len(ex.nodes)
		ex.nodes = append(ex.nodes, en)
	}

	// Wire inputs and consumers.
	for li, en := range ex.nodes {
		n := en.node
		for slot, in := range n.Inputs() {
			if fi, fed := ex.feedIdx[in]; fed {
				en.inputs = append(en.inputs, inputSource{fed: true, feedIdx: fi})
				continue
			}
			pl, ok := ex.localIdx[in.Node.ID()]
			if !ok {
				return nil, fmt.Errorf("exec: %s consumes %v which was pruned away", n.Name(), in)
			}
			en.inputs = append(en.inputs, inputSource{producer: pl, outIdx: in.Index})
			ex.nodes[pl].outConsumers[in.Index] = append(ex.nodes[pl].outConsumers[in.Index], consumer{node: li, slot: slot})
		}
		for _, c := range n.ControlInputs() {
			pl, ok := ex.localIdx[c.ID()]
			if !ok {
				// A pruned control dependency cannot fire; treat it
				// as an error to avoid silently dropping ordering.
				return nil, fmt.Errorf("exec: %s has control dependency on pruned node %s", n.Name(), c.Name())
			}
			en.numControl++
			ex.nodes[pl].ctlConsumers = append(ex.nodes[pl].ctlConsumers, li)
		}
		pendingData := 0
		for _, src := range en.inputs {
			if !src.fed {
				pendingData++
			}
		}
		en.initialPending = int32(pendingData + en.numControl)
		en.initialCtl = int32(en.numControl)
	}

	// Fetch plan: each fetch slot is preassigned to its producing node, so
	// propagation delivers fetches without scanning or locking.
	ex.fetchPlan = make([]inputSource, len(fetches))
	for i, f := range fetches {
		if fi, fed := ex.feedIdx[f]; fed {
			ex.fetchPlan[i] = inputSource{fed: true, feedIdx: fi}
			continue
		}
		pl, ok := ex.localIdx[f.Node.ID()]
		if !ok {
			return nil, fmt.Errorf("exec: fetch %v not reachable after pruning", f)
		}
		ex.fetchPlan[i] = inputSource{producer: pl, outIdx: f.Index}
		ex.nodes[pl].fetches = append(ex.nodes[pl].fetches, fetchRef{fetchIdx: int32(i), outIdx: int32(f.Index)})
	}

	// Roots: nodes ready at step start.
	for li, en := range ex.nodes {
		if en.initialPending == 0 {
			ex.roots = append(ex.roots, li)
		}
	}
	if len(ex.nodes) > 0 && len(ex.roots) == 0 {
		return nil, fmt.Errorf("exec: subgraph has no source nodes (every node has unfed inputs)")
	}

	if err := ex.assignFrames(); err != nil {
		return nil, err
	}

	ex.markRecyclable()

	// Worker pool sizing. The queue is shared by all concurrent steps;
	// senders fall back to inline execution when it fills, so the capacity
	// only bounds buffering, not correctness.
	ex.maxWorkers = int32(runtime.GOMAXPROCS(0))
	if ex.maxWorkers < 1 {
		ex.maxWorkers = 1
	}
	qcap := len(ex.nodes) + 64
	if qcap < 256 {
		qcap = 256
	}
	ex.queue = make(chan poolItem, qcap)
	ex.quit = make(chan struct{})
	return ex, nil
}

// markRecyclable gives each recyclable output a count of unfinished
// consumers, appended to its frame's prototype counters, and tells every
// consumer where it sits. An output is recyclable when it is not fetched,
// every consumer is ops.NoRetain, and its producer is ops.NoRetain and not
// stateful (or a Recv, whose rendezvous hands it a buffer from ctx.Alloc):
// its buffer came from ctx.Alloc, and its last consumer, after which no
// reference survives, puts it on the step's free list (propagate). A Read's
// output is admitted under the same consumer rule, as a lease: the Read is
// marked private, and its last consumer returns the value to the variable
// instead. Every other node whose output 0 has no consumer and no fetch is
// marked private too, so that an update keeps its new value unshared.
// Producer and consumers run in one frame and iteration — a value changes
// frame or iteration only through Enter, Exit or NextIteration, none of
// which is NoRetain — so the count works the same in the root frame, in
// every loop iteration and for shapes known only at run time.
func (ex *Executable) markRecyclable() {
	for _, en := range ex.nodes {
		read := en.node.Op() == "Read"
		if len(en.outConsumers) > 0 && !read {
			en.private = len(en.outConsumers[0]) == 0 && !en.fetched(0)
		}
		if !read && (en.node.Stateful() && en.node.Op() != "Recv" || !ops.NoRetain(en.node.Op())) {
			continue
		}
		fi := ex.frames[en.frame]
	outputs:
		for o, consumers := range en.outConsumers {
			if len(consumers) == 0 || en.fetched(o) {
				continue
			}
			for _, c := range consumers {
				if !ops.NoRetain(ex.nodes[c.node].node.Op()) {
					continue outputs
				}
			}
			ref := int32(-1)
			if read {
				ref, en.private = en.frameIn, true
			}
			ctr := int32(len(fi.proto))
			fi.proto = append(fi.proto, int32(len(consumers)))
			for _, c := range consumers {
				cn := ex.nodes[c.node]
				cn.recycle = append(cn.recycle, recycleRef{slot: int32(c.slot), ctr: ctr, ref: ref})
			}
			ex.recycled++
		}
	}
}

// fetched reports whether output o of en fills a fetch slot.
func (en *execNode) fetched(o int) bool {
	for _, ft := range en.fetches {
		if int(ft.outIdx) == o {
			return true
		}
	}
	return false
}

// PlannedBuffers reports how many outputs markRecyclable counts; each one's
// buffer is recycled once its last consumer has run, unless it is rank 0.
func (ex *Executable) PlannedBuffers() int { return ex.recycled }

// NumNodes returns the number of compiled nodes (after pruning).
func (ex *Executable) NumNodes() int { return len(ex.nodes) }
