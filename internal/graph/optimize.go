package graph

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// The distributed master applies standard optimizations before caching
// subgraphs (§5): common subexpression elimination, constant folding, and
// pruning (implemented as Prune in traverse.go). Both passes below mutate
// consumer input lists in place and return a replacement map so callers can
// remap fetch endpoints; they must run before any step executes the graph.

// nonOptimizable reports ops that CSE and constant folding must leave
// untouched: placeholders are identities the client binds at Run time, and
// control-flow nodes carry frame structure that must stay 1:1 with the
// loops and conditionals that created them (§3.4).
func nonOptimizable(op string) bool {
	switch op {
	case "Placeholder", "Switch", "Merge", "Enter", "Exit", "NextIteration", "LoopCond":
		return true
	}
	return false
}

// rewriteInputs redirects every use of `from` to `to` across the graph.
func (g *Graph) rewriteInputs(from, to Endpoint) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, n := range g.nodes {
		for i, in := range n.inputs {
			if in == from {
				n.inputs[i] = to
			}
		}
	}
}

// rewriteControl redirects every control edge sourced at `from` to `to`.
// Optimization passes call it when a node is folded, merged or fused away:
// a rewrite that leaves another node's control input pointing at the dead
// producer would silently drop the ordering constraint (the dead node is
// never scheduled), so the edge is rehomed onto the replacement, which runs
// at or after the point the original would have. Edges that would become
// self-loops or duplicates are dropped.
func (g *Graph) rewriteControl(from, to *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, n := range g.nodes {
		hit := false
		for _, c := range n.control {
			if c == from {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		kept := n.control[:0]
		for _, c := range n.control {
			if c == from {
				c = to
			}
			if c == n {
				continue
			}
			dup := false
			for _, k := range kept {
				if k == c {
					dup = true
					break
				}
			}
			if !dup {
				kept = append(kept, c)
			}
		}
		n.control = kept
	}
}

// signature returns a canonical identity string for CSE, or "" if the node
// must not be deduplicated: its GraphDef encoding, made in c, and then its
// inputs and control inputs by node id.
func (n *Node) signature(c *wire.Codec) string {
	if n.def.Stateful || nonOptimizable(n.op) {
		return ""
	}
	for _, v := range n.attrs {
		// Small constant payloads are compared by content; skip CSE for
		// large ones rather than pay a big serialization.
		if t, ok := v.(*tensor.Tensor); ok && t.NumElements() > 64 {
			return ""
		}
	}
	c.Reset()
	(&NodeDef{Op: n.op, Device: n.device, Attrs: n.attrs}).wire(c)
	wire.List(c, &n.inputs, func(in *Endpoint) { c.Uint(uint64(in.Node.id), 8); c.Uint(uint64(in.Index), 8) })
	wire.List(c, &n.control, func(d **Node) { c.Uint(uint64((*d).id), 8) })
	if c.End() != nil {
		return ""
	}
	var sb strings.Builder
	c.WriteTo(&sb)
	return sb.String()
}

// CSE eliminates common subexpressions: stateless nodes with identical op
// type, attributes, inputs, control inputs and device constraint are merged
// into their first occurrence. Returns the endpoint replacement map.
func CSE(g *Graph) map[Endpoint]Endpoint {
	replaced := make(map[Endpoint]Endpoint)
	seen := make(map[string]*Node)
	c := wire.NewEncoder()
	// Iterate to a fixpoint: merging two producers can make their
	// consumers identical.
	for {
		changed := false
		for _, n := range g.Nodes() {
			sig := n.signature(c)
			if sig == "" {
				continue
			}
			canon, dup := seen[sig]
			if !dup {
				seen[sig] = n
				continue
			}
			if canon == n {
				continue
			}
			merged := false
			for i := 0; i < n.NumOutputs(); i++ {
				from, to := n.Out(i), canon.Out(i)
				if _, done := replaced[from]; done {
					continue
				}
				g.rewriteInputs(from, to)
				replaced[from] = to
				merged = true
				changed = true
			}
			if merged {
				// The duplicate may gate other nodes via control edges;
				// rehome them onto the canonical producer so the ordering
				// constraint survives the merge.
				g.rewriteControl(n, canon)
			}
		}
		if !changed {
			return replaced
		}
		seen = make(map[string]*Node)
		// Transitively compress the replacement map.
		for from, to := range replaced {
			for {
				next, ok := replaced[to]
				if !ok {
					break
				}
				to = next
			}
			replaced[from] = to
		}
	}
}

// Evaluator executes a stateless single-output node given materialized input
// tensors; the core package supplies one backed by the real kernels.
type Evaluator func(n *Node, inputs []*tensor.Tensor) ([]*tensor.Tensor, error)

// FoldConstants repeatedly evaluates stateless nodes whose inputs are all
// Const nodes and replaces them with new Const nodes. Nodes listed in keep
// (e.g. fetch producers that must keep their identity) are still foldable —
// the replacement map records where their value moved. Returns the number
// of folded nodes and the endpoint replacement map.
func FoldConstants(g *Graph, eval Evaluator) (int, map[Endpoint]Endpoint, error) {
	replaced := make(map[Endpoint]Endpoint)
	folded := 0
	for {
		changed := false
		for _, n := range g.Nodes() {
			if n.op == "Const" || n.def.Stateful || len(n.control) > 0 || n.NumInputs() == 0 || nonOptimizable(n.op) {
				continue
			}
			if _, already := replaced[n.Out(0)]; already {
				continue
			}
			allConst := true
			inputs := make([]*tensor.Tensor, n.NumInputs())
			for i, in := range n.inputs {
				if in.Node.op != "Const" {
					allConst = false
					break
				}
				v, _ := in.Node.AttrTensor("value")
				inputs[i] = v
			}
			if !allConst {
				continue
			}
			outs, err := eval(n, inputs)
			if err != nil {
				// An op the evaluator cannot fold is skipped, not fatal.
				continue
			}
			var first *Node
			for i, out := range outs {
				// The Const stands where n stood: same device constraint,
				// same colocation hints (a folded slot initializer must still
				// materialize on the task that owns the variable).
				attrs := map[string]any{"value": out, "dtype": out.DType()}
				if hints := n.Colocation(); len(hints) > 0 {
					attrs[ColocationAttr] = hints
				}
				c, err := g.AddNode("Const", nil, NodeArgs{Name: n.name + "/folded", Attrs: attrs, Device: n.device})
				if err != nil {
					return folded, replaced, fmt.Errorf("graph: folding %s: %w", n.name, err)
				}
				if first == nil {
					first = c
				}
				from, to := n.Out(i), c.Out(0)
				g.rewriteInputs(from, to)
				replaced[from] = to
			}
			// Nodes control-gated by the folded producer must stay gated:
			// rehome their control edges onto the replacement Const (which
			// completes trivially, preserving the edge without the work).
			g.rewriteControl(n, first)
			folded++
			changed = true
		}
		if !changed {
			return folded, replaced, nil
		}
	}
}

// Remap applies a replacement map to an endpoint, following chains.
func Remap(replaced map[Endpoint]Endpoint, e Endpoint) Endpoint {
	for {
		to, ok := replaced[e]
		if !ok {
			return e
		}
		e = to
	}
}

// --- Pass pipeline -------------------------------------------------------

// Result accumulates what a pipeline run did to the graph. Replaced is the
// union of every pass's endpoint rewrites; callers remap fetch endpoints
// through it with Remap (entries may chain across passes — e.g. a folded
// endpoint whose Const was then merged by CSE).
type Result struct {
	Replaced map[Endpoint]Endpoint
	// Rewired names the pass that rewired consumers away from an endpoint:
	// the keys of Replaced plus the interiors a fusion or a sparse read
	// bypassed. A value fed there would not reach them (CheckFeeds).
	Rewired map[Endpoint]string
	Folded  int // nodes replaced by Const via constant folding
	Merged  int // duplicate nodes merged by CSE
	Sparse  int // Gather(Read) lookups rewired onto the variable
	Fused   int // kernel-fusion rewrites applied
	Dead    int // nodes marked dead (stats only; Prune stays authoritative)
}

// CheckFeeds returns an error naming the first fed endpoint whose consumers
// a pass rewired: the step would silently compute as if it were not fed.
func (r *Result) CheckFeeds(feeds []Endpoint) error {
	for _, f := range feeds {
		if pass, ok := r.Rewired[f]; ok {
			return fmt.Errorf("graph: cannot feed %v: the %s pass rewired its consumers onto a node that would not see the value (feed an endpoint the optimizer leaves in place, or disable optimizations)", f, pass)
		}
	}
	return nil
}

// Pass is one named rewrite over a graph. Passes mutate consumer wiring in
// place, record endpoint moves in res.Replaced, and must run before any
// step executes the graph.
type Pass struct {
	Name string
	Run  func(g *Graph, res *Result) error
}

// Pipeline is an ordered list of optimization passes.
type Pipeline struct {
	Passes []Pass
}

// PipelineOptions configures NewPipeline.
type PipelineOptions struct {
	// DisableFusion omits the kernel-fusion pass (FusedMatMul and
	// cross-entropy rewrites); folding, CSE and dead-marking still run.
	DisableFusion bool
}

// NewPipeline builds the standard compile-time pipeline (§5), in order:
//
//	FoldConstants  evaluate Const-fed stateless nodes at compile time
//	CSE            merge identical stateless nodes
//	SparseRead     read Gather(Read(ref), idx) in place, beside the variable
//	fuse           rewrite hot chains onto fused kernels
//	MarkDead       tag nodes no live consumer can reach (stats/tooling)
//
// Folding runs first so CSE sees canonical Consts; the sparse read runs
// after CSE so duplicate lookups are rewritten once; fusion runs after all
// three so it pattern-matches the cleaned-up graph (and, when invoked after
// gradient construction, sees gradient consumers and correctly refuses to
// fuse interior values the backward pass reads).
func NewPipeline(eval Evaluator, opts PipelineOptions) *Pipeline {
	p := &Pipeline{Passes: []Pass{FoldConstantsPass(eval), CSEPass(), SparseReadPass()}}
	if !opts.DisableFusion {
		p.Passes = append(p.Passes, FusePass())
	}
	p.Passes = append(p.Passes, MarkDeadPass())
	return p
}

// Run applies the passes in order and returns the accumulated result.
func (p *Pipeline) Run(g *Graph) (*Result, error) {
	res := &Result{Replaced: map[Endpoint]Endpoint{}, Rewired: map[Endpoint]string{}}
	for _, pass := range p.Passes {
		if err := pass.Run(g, res); err != nil {
			return res, fmt.Errorf("graph: %s pass: %w", pass.Name, err)
		}
	}
	return res, nil
}

// FoldConstantsPass wraps FoldConstants as a pipeline pass.
func FoldConstantsPass(eval Evaluator) Pass {
	return Pass{Name: "fold-constants", Run: func(g *Graph, res *Result) error {
		n, replaced, err := FoldConstants(g, eval)
		res.Folded += n
		mergeReplaced(res, "fold-constants", replaced)
		return err
	}}
}

// CSEPass wraps CSE as a pipeline pass.
func CSEPass() Pass {
	return Pass{Name: "cse", Run: func(g *Graph, res *Result) error {
		replaced := CSE(g)
		res.Merged += len(replaced)
		mergeReplaced(res, "cse", replaced)
		return nil
	}}
}

// FusePass wraps fuse (fuse.go) as a pipeline pass. Every output of a chain
// member counts as rewired: the fused node reads none of them.
func FusePass() Pass {
	return Pass{Name: "fuse", Run: func(g *Graph, res *Result) error {
		n, replaced, chains, err := fuse(g)
		res.Fused += n
		mergeReplaced(res, "fuse", replaced)
		for m := range chains {
			for i := range m.outSpecs {
				res.Rewired[m.Out(i)] = "fuse"
			}
		}
		return err
	}}
}

// MarkDeadPass wraps MarkDead as a pipeline pass.
func MarkDeadPass() Pass {
	return Pass{Name: "mark-dead", Run: func(g *Graph, res *Result) error {
		res.Dead += MarkDead(g, res.Replaced)
		return nil
	}}
}

func mergeReplaced(res *Result, pass string, m map[Endpoint]Endpoint) {
	for from, to := range m {
		res.Replaced[from], res.Rewired[from] = to, pass
	}
}

// DeadAttr marks a node earlier passes disconnected from every possible
// consumer. The marking is informational — per-step Prune remains the
// authority on what executes — but tooling (stats, golden-graph snapshots)
// uses it to render the effective post-optimization graph.
const DeadAttr = "_dead"

// Dead reports whether an optimization pass marked the node dead.
func (n *Node) Dead() bool { return n.AttrBool(DeadAttr, false) }

// MarkDead tags nodes that no live node consumes, seeded by the pipeline's
// replacement map: a node all of whose outputs were replaced is dead unless
// something still reads or control-depends on it, and deadness propagates
// to producers whose every consumer is dead. Stateful nodes are never
// marked (they may be run as targets), and neither are terminal nodes that
// were not superseded (they are likely fetch or target roots). Returns the
// number of nodes marked.
func MarkDead(g *Graph, replaced map[Endpoint]Endpoint) int {
	nodes := g.Nodes()
	dataCons := make(map[*Node][]*Node, len(nodes))
	ctrlCons := make(map[*Node][]*Node, len(nodes))
	for _, n := range nodes {
		for _, in := range n.Inputs() {
			dataCons[in.Node] = append(dataCons[in.Node], n)
		}
		for _, c := range n.ControlInputs() {
			ctrlCons[c] = append(ctrlCons[c], n)
		}
	}
	superseded := func(n *Node) bool {
		for i := 0; i < n.NumOutputs(); i++ {
			if _, ok := replaced[n.Out(i)]; !ok {
				return false
			}
		}
		return n.NumOutputs() > 0
	}
	dead := make(map[*Node]bool)
	for {
		changed := false
		for _, n := range nodes {
			if dead[n] || n.Stateful() || nonOptimizable(n.op) {
				continue
			}
			hasConsumer := len(dataCons[n])+len(ctrlCons[n]) > 0
			if !hasConsumer && !superseded(n) {
				continue // terminal node that was never rewritten: a root
			}
			allDead := true
			for _, c := range dataCons[n] {
				if !dead[c] {
					allDead = false
					break
				}
			}
			if allDead {
				for _, c := range ctrlCons[n] {
					if !dead[c] {
						allDead = false
						break
					}
				}
			}
			if allDead {
				dead[n] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for n := range dead {
		n.SetAttr(DeadAttr, true)
	}
	return len(dead)
}
