// Package autodiff implements automatic differentiation as a user-level
// graph-construction library, exactly as the paper describes (§4.1): "the
// differentiation algorithm performs breadth-first search to identify all
// of the backwards paths from the target operation to a set of parameters,
// and sums the partial gradients that each path contributes."
//
// Gradients are graph fragments, not runtime magic: each registered
// gradient function appends ordinary operations to the same graph, so the
// backward pass is pruned, placed, partitioned and executed like any other
// subgraph — and each function builds beside the forward node it
// differentiates (build.B.Beside), so the placer puts a backward pass where
// its forward pass ran. Gradients of sparse reads (Gather) stay sparse — an
// (indices, values) pair — so optimizers can apply ScatterAdd-style updates
// that touch only the gathered rows (§4.2).
//
// Control flow is differentiable too (§4.1, §3.4). Conditionals rewrite to
// their dual: the gradient of a Merge is a Switch on the same predicate and
// vice versa, with zeros injected for the untaken branch (grads.go). Loops
// are handled by a frame-aware traversal: nodes are grouped by the
// control-flow frame recorded at construction, and when the backward sweep
// has collected the gradients of every Exit of a frame it builds one
// backward loop that runs the body's vector-Jacobian product in reverse,
// driven by the forward trip count and fed by stack-saved intermediates
// (loopgrad.go).
package autodiff

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/build"
	"repro/internal/graph"
)

// Grad is one gradient contribution: either a dense tensor endpoint, or a
// sparse (indices, values) pair equivalent to a dense tensor with NumRows
// rows that is zero outside the indexed rows.
type Grad struct {
	Dense graph.Endpoint

	Indices graph.Endpoint
	Values  graph.Endpoint
	NumRows int
}

// IsZero reports whether the gradient carries no contribution.
func (g Grad) IsZero() bool { return g.Dense.Node == nil && g.Values.Node == nil }

// IsSparse reports whether the gradient is an (indices, values) pair.
func (g Grad) IsSparse() bool { return g.Values.Node != nil }

// DenseGrad wraps a dense endpoint.
func DenseGrad(e graph.Endpoint) Grad { return Grad{Dense: e} }

// Func builds the gradient subgraph for one node: given the gradients
// flowing into each output, it returns the gradient flowing out of each
// data input (zero Grads for non-differentiable inputs such as indices).
type Func func(b *build.B, n *graph.Node, outGrads []Grad) ([]Grad, error)

var (
	gradMu    sync.RWMutex
	gradFuncs = map[string]Func{}
)

// RegisterGradient installs the gradient function for an op type. Like the
// reference system, users can register specialized gradients (§4.1: "our
// users frequently specialize the gradients for some operations").
func RegisterGradient(op string, f Func) {
	gradMu.Lock()
	defer gradMu.Unlock()
	if _, dup := gradFuncs[op]; dup {
		panic(fmt.Sprintf("autodiff: gradient for %q registered twice", op))
	}
	gradFuncs[op] = f
}

// lookupGradient returns the gradient function for an op type.
func lookupGradient(op string) (Func, bool) {
	gradMu.RLock()
	defer gradMu.RUnlock()
	f, ok := gradFuncs[op]
	return f, ok
}

// applyNodeGrad dispatches the registered gradient function of n and checks
// the arity contract. Both the top-level sweep and the loop-body sweep go
// through it.
func applyNodeGrad(b *build.B, n *graph.Node, outGrads []Grad) ([]Grad, error) {
	gf, ok := lookupGradient(n.Op())
	if !ok {
		return nil, fmt.Errorf("autodiff: no gradient registered for op %s (node %s)", n.Op(), n.Name())
	}
	inGrads, err := gf(b, n, outGrads)
	if err != nil {
		return nil, fmt.Errorf("autodiff: gradient of %s (%s): %w", n.Name(), n.Op(), err)
	}
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("autodiff: building gradient of %s: %w", n.Name(), err)
	}
	if len(inGrads) != n.NumInputs() {
		return nil, fmt.Errorf("autodiff: gradient of %s returned %d input grads for %d inputs",
			n.Op(), len(inGrads), n.NumInputs())
	}
	return inGrads, nil
}

// sweepState bundles the accumulation state of one Gradients call so the
// loop-gradient builder can route its results back into the main sweep.
type sweepState struct {
	b         *build.B
	g         *graph.Graph
	between   graph.NodeSet
	consumers map[graph.Endpoint][]graph.Endpoint
	pending   map[graph.Endpoint][]Grad
	xSet      map[graph.Endpoint]bool
	result    map[graph.Endpoint]Grad
}

// addPending records a gradient contribution for ep if it can still matter:
// either ep's producer is on a path to the requested xs, or ep itself is a
// requested x.
func (s *sweepState) addPending(ep graph.Endpoint, gr Grad) {
	if gr.IsZero() {
		return
	}
	if !s.between[ep.Node.ID()] && !s.xSet[ep] {
		return
	}
	s.pending[ep] = append(s.pending[ep], gr)
}

// Gradients builds ∂sum(ys)/∂xs. gradYs optionally seeds the output
// gradients (defaults to ones). The result is parallel to xs; entries are
// zero Grads when y does not depend on x.
func Gradients(g *graph.Graph, ys, xs []graph.Endpoint, gradYs []graph.Endpoint) ([]Grad, error) {
	if len(gradYs) != 0 && len(gradYs) != len(ys) {
		return nil, fmt.Errorf("autodiff: %d gradYs for %d ys", len(gradYs), len(ys))
	}
	b := build.New(g).WithScope("gradients")

	// Backward reachability from ys over data edges.
	backward := map[int]bool{}
	var stack []*graph.Node
	for _, y := range ys {
		if !backward[y.Node.ID()] {
			backward[y.Node.ID()] = true
			stack = append(stack, y.Node)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.Op() == "StopGradient" || n.Op() == "PreventGradient" {
			continue
		}
		for _, in := range n.Inputs() {
			if !backward[in.Node.ID()] {
				backward[in.Node.ID()] = true
				stack = append(stack, in.Node)
			}
		}
	}
	// Forward reachability from xs over data edges.
	forward := map[int]bool{}
	for _, x := range xs {
		if !forward[x.Node.ID()] {
			forward[x.Node.ID()] = true
			stack = append(stack, x.Node)
		}
	}
	consumers := graph.Consumers(g)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := 0; i < n.NumOutputs(); i++ {
			for _, c := range consumers[n.Out(i)] {
				if !forward[c.Node.ID()] {
					forward[c.Node.ID()] = true
					stack = append(stack, c.Node)
				}
			}
		}
	}
	// The "between" set: nodes on some path from xs to ys.
	between := graph.NodeSet{}
	for id := range backward {
		if forward[id] {
			between[id] = true
		}
	}

	// Differentiation endpoints inside a loop frame are not supported: only
	// Exit values (delivered into the enclosing frame) may serve as ys/xs.
	for _, y := range ys {
		if f := graph.NodeFrame(y.Node); f != "" && y.Node.Op() != "Exit" {
			return nil, fmt.Errorf("autodiff: cannot differentiate %s: node %s executes inside loop frame %s; differentiate its Exit value instead",
				y, y.Node.Name(), f)
		}
	}
	for _, x := range xs {
		if f := graph.NodeFrame(x.Node); f != "" && x.Node.Op() != "Exit" {
			return nil, fmt.Errorf("autodiff: cannot differentiate w.r.t. %s: node %s executes inside loop frame %s",
				x, x.Node.Name(), f)
		}
	}

	// Recover the static structure of every loop frame the sweep will cross.
	frames, err := collectFrames(g, between, consumers)
	if err != nil {
		return nil, err
	}

	s := &sweepState{
		b:         b,
		g:         g,
		between:   between,
		consumers: consumers,
		pending:   map[graph.Endpoint][]Grad{},
		xSet:      map[graph.Endpoint]bool{},
		result:    map[graph.Endpoint]Grad{},
	}
	for _, x := range xs {
		s.xSet[x] = true
	}
	for i, y := range ys {
		if !between[y.Node.ID()] {
			continue
		}
		if len(gradYs) > 0 {
			s.pending[y] = append(s.pending[y], DenseGrad(gradYs[i]))
		} else {
			s.pending[y] = append(s.pending[y], DenseGrad(b.Beside(y.Node).OnesLike(y)))
		}
	}

	// Frame-free graphs (the common case) take the plain topological sort;
	// only loops need the supernode contraction.
	var order []*graph.Node
	if len(frames) == 0 {
		order, err = graph.TopoSort(g, between)
	} else {
		order, err = frameGroupedOrder(g, between)
	}
	if err != nil {
		return nil, err
	}

	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if fname := graph.NodeFrame(n); fname != "" {
			li := frames[fname]
			if li == nil {
				return nil, fmt.Errorf("autodiff: internal: no loop info for frame %s (node %s)", fname, n.Name())
			}
			if err := li.visit(s, n); err != nil {
				return nil, err
			}
			continue
		}
		outGrads := make([]Grad, n.NumOutputs())
		any := false
		for o := 0; o < n.NumOutputs(); o++ {
			ep := n.Out(o)
			sum, err := sumGrads(b, s.pending[ep])
			if err != nil {
				return nil, err
			}
			outGrads[o] = sum
			if !sum.IsZero() {
				any = true
			}
			if s.xSet[ep] {
				s.result[ep] = sum
			}
			delete(s.pending, ep)
		}
		if !any || n.NumInputs() == 0 {
			continue
		}
		if n.Op() == "StopGradient" || n.Op() == "PreventGradient" {
			continue
		}
		inGrads, err := applyNodeGrad(b.Beside(n), n, outGrads)
		if err != nil {
			return nil, err
		}
		for ii, gIn := range inGrads {
			s.addPending(n.Input(ii), gIn)
		}
	}

	out := make([]Grad, len(xs))
	for i, x := range xs {
		if gr, ok := s.result[x]; ok {
			out[i] = gr
			continue
		}
		sum, err := sumGrads(b, s.pending[x])
		if err != nil {
			return nil, err
		}
		out[i] = sum
	}
	if b.Err() != nil {
		return nil, b.Err()
	}
	return out, nil
}

// frameGroupedOrder returns the between-set nodes in a topological order
// that keeps each loop frame contiguous: every frame is contracted to one
// supernode before sorting, so the reverse sweep sees all consumers of a
// loop's Exits before any of the loop's nodes, and every producer feeding
// the loop after all of them. A flat order cannot guarantee this — an
// invariant's producer may sort between a frame's Exits.
func frameGroupedOrder(g *graph.Graph, set graph.NodeSet) ([]*graph.Node, error) {
	// Group key: frame name for frame members, unique per-node key otherwise.
	groupOf := func(n *graph.Node) string {
		if f := graph.NodeFrame(n); f != "" {
			return "f:" + f
		}
		return fmt.Sprintf("n:%09d", n.ID())
	}
	members := map[string][]*graph.Node{}
	indeg := map[string]int{}
	succ := map[string][]string{}
	edge := map[[2]string]bool{}
	for _, n := range g.Nodes() {
		if !set[n.ID()] {
			continue
		}
		gk := groupOf(n)
		members[gk] = append(members[gk], n)
		if _, ok := indeg[gk]; !ok {
			indeg[gk] = 0
		}
		deps := make([]*graph.Node, 0, n.NumInputs()+len(n.ControlInputs()))
		for _, in := range n.Inputs() {
			deps = append(deps, in.Node)
		}
		deps = append(deps, n.ControlInputs()...)
		for _, d := range deps {
			if !set[d.ID()] || d.Op() == "NextIteration" {
				continue
			}
			dk := groupOf(d)
			if dk == gk || edge[[2]string{dk, gk}] {
				continue
			}
			edge[[2]string{dk, gk}] = true
			indeg[gk]++
			succ[dk] = append(succ[dk], gk)
		}
	}
	queue := make([]string, 0, len(indeg))
	for k, d := range indeg {
		if d == 0 {
			queue = append(queue, k)
		}
	}
	sort.Strings(queue)
	var order []*graph.Node
	done := 0
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		done++
		ms := members[k]
		sort.Slice(ms, func(i, j int) bool { return ms[i].ID() < ms[j].ID() })
		order = append(order, ms...)
		for _, sk := range succ[k] {
			indeg[sk]--
			if indeg[sk] == 0 {
				queue = append(queue, sk)
			}
		}
	}
	if done != len(indeg) {
		return nil, fmt.Errorf("autodiff: cycle across control-flow frames (%d of %d groups ordered); nested or mutually dependent loops cannot be differentiated",
			done, len(indeg))
	}
	return order, nil
}

// sumGrads combines the contributions of every backward path into one
// gradient (§4.1: "sums the partial gradients that each path contributes").
// A single sparse contribution stays sparse; mixtures are densified. The sum
// is emitted beside its first contribution, not beside the forward producer:
// the partials of a weight read from a parameter server by two layers are
// added on the worker that computed them, and one tensor leaves it.
func sumGrads(b *build.B, grads []Grad) (Grad, error) {
	switch len(grads) {
	case 0:
		return Grad{}, nil
	case 1:
		return grads[0], nil
	}
	if first := grads[0]; first.IsSparse() {
		b = b.Beside(first.Values.Node)
	} else {
		b = b.Beside(first.Dense.Node)
	}
	dense := make([]graph.Endpoint, 0, len(grads))
	for _, g := range grads {
		if g.IsSparse() {
			d, err := Densify(b, g)
			if err != nil {
				return Grad{}, err
			}
			dense = append(dense, d)
		} else {
			dense = append(dense, g.Dense)
		}
	}
	return DenseGrad(b.AddN(dense)), nil
}

// Densify converts a sparse gradient into its dense equivalent with
// UnsortedSegmentSum, which also folds duplicate indices.
func Densify(b *build.B, g Grad) (graph.Endpoint, error) {
	if !g.IsSparse() {
		return g.Dense, nil
	}
	if g.NumRows <= 0 {
		return graph.Endpoint{}, fmt.Errorf("autodiff: cannot densify sparse gradient with unknown row count")
	}
	return b.Op("UnsortedSegmentSum", []graph.Endpoint{g.Values, g.Indices},
		map[string]any{"num_segments": g.NumRows}), nil
}
