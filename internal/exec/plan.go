package exec

import (
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Static memory planning. For control-flow free executables the compiler
// assigns each eligible node output a buffer ID; at run time the kernel's
// ctx.Alloc draws the tensor from the step's persistent buffer table
// (step.bufs) instead of heap-allocating, and a buffer whose previous
// occupant is provably dead at the new producer is reused within the step.
// A steady-state training loop then allocates no intermediate tensors at
// all: the pooled step keeps its buffers across Runs.
//
// Safety rests on three invariants:
//
//   - An output is planned only when its kernel declares the
//     ops.PlansOutputs discipline (allocates via ctx.Alloc, fully
//     overwrites, never aliases an input) and every data consumer declares
//     ops.NoRetain (reads during the kernel call, keeps no reference).
//   - A buffer is reused by node v only when the previous occupant's
//     producer and all of its consumers are transitive predecessors of v
//     (data or control edges). The dataflow completion chain — a finished
//     node delivers to its successors, and so counts their pending inputs
//     down, under the root frame instance's mutex, and a node is scheduled
//     only by the delivery that takes its counter to zero — then gives a
//     happens-before edge from every old reader to v's kernel, even across
//     pool workers: each reader's kernel returned before its goroutine took
//     the mutex to deliver, and every later delivery on the path to v takes
//     the same mutex after it. v itself never qualifies (a node is not its
//     own predecessor), so a kernel never reads one of its inputs out of the
//     buffer it writes.
//   - Fetched outputs are never planned: fetch tensors outlive the step
//     (the caller owns them) and must not be rewritten by the next Run.
//
// An executable with any control-flow node skips planning entirely: a dead
// branch, a Merge that fires on its first input and a dynamic iteration
// count each break the static "every predecessor has finished" argument.

// planMaxNodes bounds the planner's O(n²/64) predecessor bitsets (a 4096-
// node subgraph costs 2 MiB of transient compile-time memory).
const planMaxNodes = 4096

// planBuf tracks the current occupant of one planned buffer during the
// greedy compile-time assignment.
type planBuf struct {
	dtype tensor.DType
	elems int
	owner int   // node whose output currently occupies the buffer
	cons  []int // data consumers of that output
}

// planMemory fills ex.outOff, ex.bufPlan (per output slot: buffer ID or -1)
// and ex.numBufs. It requires the fetch plan.
func (ex *Executable) planMemory() {
	n := len(ex.nodes)
	if n == 0 || n > planMaxNodes {
		return
	}
	for _, en := range ex.nodes {
		switch en.node.Op() {
		case "Switch", "Merge", "Enter", "Exit", "NextIteration", "LoopCond":
			return
		}
	}
	order := ex.topoOrder()
	if order == nil {
		return
	}

	// Transitive predecessor bitsets, built in topological order:
	// preds(v) = ∪ preds(p) ∪ {p} over direct predecessors p.
	words := (n + 63) / 64
	preds := make([]uint64, n*words)
	predRow := func(v int) []uint64 { return preds[v*words : (v+1)*words] }
	hasPred := func(v, p int) bool { return predRow(v)[p/64]&(1<<(uint(p)&63)) != 0 }
	absorb := func(v, p int) {
		pv, pp := predRow(v), predRow(p)
		for i := range pv {
			pv[i] |= pp[i]
		}
		pv[p/64] |= 1 << (uint(p) & 63)
	}
	// Control predecessors are recorded on the producer side; invert the
	// edge lists once so the sweep sees both edge kinds together.
	ctlPreds := make([][]int32, n)
	for p, en := range ex.nodes {
		for _, c := range en.ctlConsumers {
			ctlPreds[c] = append(ctlPreds[c], int32(p))
		}
	}
	for _, v := range order {
		for _, src := range ex.nodes[v].inputs {
			if !src.fed {
				absorb(v, src.producer)
			}
		}
		for _, p := range ctlPreds[v] {
			absorb(v, int(p))
		}
	}

	ex.outOff = make([]int32, n+1)
	for i, en := range ex.nodes {
		ex.outOff[i+1] = ex.outOff[i] + int32(en.node.NumOutputs())
	}
	ex.bufPlan = make([]int32, ex.outOff[n])
	for i := range ex.bufPlan {
		ex.bufPlan[i] = -1
	}
	var bufs []planBuf
	for _, v := range order {
		en := ex.nodes[v]
		if en.node.Stateful() || !ops.PlansOutputs(en.node.Op()) {
			continue
		}
		for o := 0; o < en.node.NumOutputs(); o++ {
			spec := en.node.OutSpec(o)
			if !spec.Shape.IsFullyDefined() {
				continue
			}
			elems := spec.Shape.NumElements()
			if elems <= 0 {
				continue
			}
			fetched := false
			for _, ft := range en.fetches {
				if int(ft.outIdx) == o {
					fetched = true
					break
				}
			}
			if fetched {
				continue
			}
			safe := true
			for _, c := range en.outConsumers[o] {
				if !ops.NoRetain(ex.nodes[c.node].node.Op()) {
					safe = false
					break
				}
			}
			if !safe {
				continue
			}
			// Greedy assignment: recycle a dead same-size buffer, else open
			// a new one.
			slot := -1
			for bi := range bufs {
				b := &bufs[bi]
				if b.dtype != spec.DType || b.elems != elems || !hasPred(v, b.owner) {
					continue
				}
				dead := true
				for _, c := range b.cons {
					if !hasPred(v, c) {
						dead = false
						break
					}
				}
				if dead {
					slot = bi
					break
				}
			}
			if slot < 0 {
				bufs = append(bufs, planBuf{dtype: spec.DType, elems: elems})
				slot = len(bufs) - 1
			}
			b := &bufs[slot]
			b.owner = v
			b.cons = b.cons[:0]
			for _, c := range en.outConsumers[o] {
				b.cons = append(b.cons, c.node)
			}
			ex.bufPlan[ex.outOff[v]+int32(o)] = int32(slot)
			ex.plannedOutputs++
		}
	}
	ex.numBufs = len(bufs)
}

// topoOrder returns the compiled nodes in a topological order over data and
// control edges, or nil if one does not exist (which cannot happen without
// control flow; the nil check keeps the planner robust anyway).
func (ex *Executable) topoOrder() []int {
	n := len(ex.nodes)
	indeg := make([]int32, n)
	for i, en := range ex.nodes {
		indeg[i] = en.initialPending
	}
	order := make([]int, 0, n)
	for v, d := range indeg {
		if d == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		en := ex.nodes[order[i]]
		for _, consumers := range en.outConsumers {
			for _, c := range consumers {
				if indeg[c.node]--; indeg[c.node] == 0 {
					order = append(order, c.node)
				}
			}
		}
		for _, c := range en.ctlConsumers {
			if indeg[c]--; indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	if len(order) != n {
		return nil
	}
	return order
}

// PlannedOutputs reports how many output slots the static memory planner
// backed with persistent, recyclable buffers.
func (ex *Executable) PlannedOutputs() int { return ex.plannedOutputs }

// PlannedBuffers reports how many distinct buffers the plan uses; it is
// at most PlannedOutputs and smaller whenever liveness allowed reuse.
func (ex *Executable) PlannedBuffers() int { return ex.numBufs }
