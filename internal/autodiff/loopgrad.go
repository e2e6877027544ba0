package autodiff

// Loop differentiation (§4.1, §3.4): "the gradient of a while loop is
// another while loop that runs the same number of iterations, executing the
// gradient of the loop body in reverse, consuming intermediate values that
// the forward loop saved on stacks."
//
// The forward structure is recovered from the metadata tf.While records at
// construction: frame membership (graph.FrameAttr / Enter frame_name), the
// hidden trip-count counter (graph.LoopCounterAttr), and the skeleton
// wiring Enter → Merge → Switch(LoopCond) → {Exit, body} → NextIteration.
// The backward loop built here is an ordinary frame made of the same five
// primitives:
//
//   - a countdown variable initialized with the forward trip count gates
//     the backward LoopCond (t > 0);
//   - one gradient variable per differentiable (float) forward loop
//     variable, seeded with the Exit gradient (zeros when the Exit is
//     unused) and advanced each iteration by the body's vector-Jacobian
//     product;
//   - one accumulator per differentiable loop invariant, summing the
//     per-iteration contribution;
//   - one stack per forward intermediate the VJP references: the forward
//     loop gains a StackPush chained through a token loop variable, the
//     token's Exit hands the (fully pushed) stack to the backward loop, and
//     a StackPop chained through its own token variable yields the
//     iteration-t value while the backward loop runs iteration N-1-t.
//
// Everything is plain dataflow: the token chains make push/pop ordering and
// the push-before-pop barrier visible to pruning and the executor, with no
// hidden resource edges.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// loopVar binds the skeleton nodes of one loop variable.
type loopVar struct {
	enter, merge, sw, exit, next *graph.Node
}

// bodyIn is the per-iteration value the body consumes for this variable.
func (v *loopVar) bodyIn() graph.Endpoint { return v.sw.Out(1) }

// loopInfo is the static structure of one while-loop frame.
type loopInfo struct {
	frame      string
	loopCond   *graph.Node
	vars       []*loopVar    // user loop variables (counter excluded)
	counter    *loopVar      // hidden trip-count variable
	invariants []*graph.Node // constant Enters (incl. automatic captures)
	bodySet    graph.NodeSet // frame nodes minus skeleton

	remaining int          // var Exits in the between set not yet visited
	exitGrads map[int]Grad // Exit node id -> summed output gradient
	built     bool
}

// collectFrames analyzes every loop frame that has nodes in the between
// set, so the sweep can treat each one as a single differentiable unit.
func collectFrames(g *graph.Graph, between graph.NodeSet, consumers map[graph.Endpoint][]graph.Endpoint) (map[string]*loopInfo, error) {
	names := map[string]bool{}
	for id := range between {
		if f := graph.NodeFrame(g.Node(id)); f != "" {
			names[f] = true
		}
	}
	if len(names) == 0 {
		return nil, nil
	}
	out := map[string]*loopInfo{}
	for f := range names {
		li, err := analyzeLoop(g, f, consumers)
		if err != nil {
			return nil, err
		}
		for _, v := range li.vars {
			if between[v.exit.ID()] {
				li.remaining++
			}
		}
		if li.remaining == 0 {
			return nil, fmt.Errorf("autodiff: loop frame %s is on a differentiation path but none of its Exits are; cannot route gradients through it", f)
		}
		out[f] = li
	}
	return out, nil
}

// analyzeLoop recovers the skeleton of one frame and validates that it is
// differentiable: built by tf.While (trip counter present) with a
// single-frame body (no nested control flow) and a trip count that does not
// depend on differentiable loop-variant state.
func analyzeLoop(g *graph.Graph, frame string, consumers map[graph.Endpoint][]graph.Endpoint) (*loopInfo, error) {
	li := &loopInfo{frame: frame, bodySet: graph.NodeSet{}, exitGrads: map[int]Grad{}}
	var frameNodes, enters []*graph.Node
	for _, n := range g.Nodes() {
		if graph.NodeFrame(n) != frame {
			continue
		}
		frameNodes = append(frameNodes, n)
		switch n.Op() {
		case "Enter":
			enters = append(enters, n)
		case "LoopCond":
			if li.loopCond != nil {
				return nil, fmt.Errorf("autodiff: loop frame %s has two LoopCond nodes (%s and %s)",
					frame, li.loopCond.Name(), n.Name())
			}
			li.loopCond = n
		}
	}
	if li.loopCond == nil {
		return nil, fmt.Errorf("autodiff: cannot differentiate through loop frame %s: no LoopCond node (not built by tf.While?)", frame)
	}
	if li.loopCond.AttrBool(gradFrameAttr, false) {
		return nil, fmt.Errorf("autodiff: loop frame %s is a gradient-generated backward loop; second-order gradients through while loops are not supported", frame)
	}

	skeleton := graph.NodeSet{}
	skeleton.Add(li.loopCond)
	for _, e := range enters {
		skeleton.Add(e)
		if e.AttrBool("is_constant", false) {
			li.invariants = append(li.invariants, e)
			continue
		}
		v, err := wireLoopVar(li, e, consumers)
		if err != nil {
			return nil, err
		}
		for _, sn := range []*graph.Node{v.merge, v.sw, v.exit, v.next} {
			skeleton.Add(sn)
		}
		if e.AttrBool(graph.LoopCounterAttr, false) {
			li.counter = v
		} else {
			li.vars = append(li.vars, v)
		}
	}
	if li.counter == nil {
		return nil, fmt.Errorf("autodiff: cannot differentiate through loop frame %s: no trip-count counter recorded; build loops with tf.While", frame)
	}

	// Body = frame nodes minus skeleton; any control-flow primitive left
	// over means a conditional or another loop nested in the body.
	for _, n := range frameNodes {
		if skeleton[n.ID()] {
			continue
		}
		switch n.Op() {
		case "Enter", "Exit", "NextIteration", "LoopCond", "Switch", "Merge":
			return nil, fmt.Errorf("autodiff: loop frame %s nests control flow in its body (node %s, op %s); differentiating nested control flow is not supported",
				frame, n.Name(), n.Op())
		}
		li.bodySet.Add(n)
	}
	// The body must be single-frame: a node consuming a value from another
	// frame means nested loops leaked values directly.
	for id := range li.bodySet {
		n := g.Node(id)
		for _, in := range n.Inputs() {
			if pf := graph.NodeFrame(in.Node); pf != frame {
				return nil, fmt.Errorf("autodiff: node %s in loop frame %s consumes %s from frame %q; differentiating across frames is not supported",
					n.Name(), frame, in, pf)
			}
		}
	}

	// A trip count that depends on differentiable loop-variant state makes
	// the loss non-differentiable in that state; reject it loudly instead
	// of returning a silently wrong gradient (the counter and other integer
	// variables are fine).
	seen := graph.NodeSet{}
	predStack := []*graph.Node{li.loopCond.Input(0).Node}
	for len(predStack) > 0 {
		n := predStack[len(predStack)-1]
		predStack = predStack[:len(predStack)-1]
		if seen[n.ID()] || graph.NodeFrame(n) != frame {
			continue
		}
		seen.Add(n)
		for _, v := range li.vars {
			if n == v.merge && v.merge.Out(0).DType().IsFloat() {
				return nil, fmt.Errorf("autodiff: cannot differentiate through loop frame %s: its predicate depends on loop-variant value %s (node %s); gradients w.r.t. a data-dependent trip count are undefined — drive the loop with an integer counter instead",
					frame, v.merge.Out(0), v.merge.Name())
			}
		}
		for _, in := range n.Inputs() {
			predStack = append(predStack, in.Node)
		}
	}
	return li, nil
}

// wireLoopVar follows one non-constant Enter through its Merge, Switch,
// Exit and NextIteration.
func wireLoopVar(li *loopInfo, enter *graph.Node, consumers map[graph.Endpoint][]graph.Endpoint) (*loopVar, error) {
	v := &loopVar{enter: enter}
	for _, c := range consumers[enter.Out(0)] {
		if c.Node.Op() == "Merge" {
			v.merge = c.Node
			break
		}
	}
	if v.merge == nil {
		return nil, fmt.Errorf("autodiff: loop frame %s: Enter %s feeds no Merge", li.frame, enter.Name())
	}
	for _, c := range consumers[v.merge.Out(0)] {
		if c.Node.Op() == "Switch" && c.Node.Input(1).Node == li.loopCond {
			v.sw = c.Node
			break
		}
	}
	if v.sw == nil {
		return nil, fmt.Errorf("autodiff: loop frame %s: Merge %s feeds no LoopCond-gated Switch", li.frame, v.merge.Name())
	}
	for _, c := range consumers[v.sw.Out(0)] {
		if c.Node.Op() == "Exit" {
			v.exit = c.Node
			break
		}
	}
	if v.exit == nil {
		return nil, fmt.Errorf("autodiff: loop frame %s: Switch %s feeds no Exit", li.frame, v.sw.Name())
	}
	if v.merge.NumInputs() != 2 {
		return nil, fmt.Errorf("autodiff: loop frame %s: Merge %s has %d inputs, expected Enter plus one back edge",
			li.frame, v.merge.Name(), v.merge.NumInputs())
	}
	v.next = v.merge.Input(1).Node
	if v.next.Op() != "NextIteration" {
		return nil, fmt.Errorf("autodiff: loop frame %s: back edge of %s comes from %s, not NextIteration",
			li.frame, v.merge.Name(), v.next.Op())
	}
	return v, nil
}

// varByExit returns the loop variable delivered by the given Exit, or nil
// (the counter's Exit and stack-token Exits carry no gradient).
func (li *loopInfo) varByExit(n *graph.Node) *loopVar {
	for _, v := range li.vars {
		if v.exit == n {
			return v
		}
	}
	return nil
}

// visit handles one frame-member node of the main backward sweep: Exit
// gradients are captured until the last one arrives, which triggers the
// backward-loop construction; gradient must never reach any other frame
// node directly.
func (li *loopInfo) visit(s *sweepState, n *graph.Node) error {
	if n.Op() == "Exit" {
		if v := li.varByExit(n); v != nil {
			ep := n.Out(0)
			sum, err := sumGrads(s.b, s.pending[ep])
			if err != nil {
				return err
			}
			delete(s.pending, ep)
			if s.xSet[ep] {
				s.result[ep] = sum
			}
			li.exitGrads[n.ID()] = sum
			li.remaining--
			if li.remaining == 0 && !li.built {
				return li.buildBackward(s)
			}
			return nil
		}
	}
	for o := 0; o < n.NumOutputs(); o++ {
		if len(s.pending[n.Out(o)]) > 0 {
			return fmt.Errorf("autodiff: gradient reaches %s (%s) inside loop frame %s directly; only Exit values may be differentiated",
				n.Name(), n.Op(), li.frame)
		}
	}
	return nil
}

// backwardFrameSeq uniquifies backward frame names across Gradients calls.
var backwardFrameSeq atomic.Int64

// gradFrameAttr marks the LoopCond of a gradient-generated backward loop,
// so a second differentiation pass reaching it can say plainly that
// second-order loop gradients are unsupported instead of reporting a
// confusing structural mismatch.
const gradFrameAttr = "_grad_frame"

// gradLoopVar is one variable of the backward loop.
type gradLoopVar struct {
	enter, merge, sw, exit *graph.Node
}

// buildBackward constructs the backward loop for this frame and routes the
// resulting gradients (w.r.t. the loop-variable initial values and the
// invariant sources) back into the main sweep.
func (li *loopInfo) buildBackward(s *sweepState) error {
	li.built = true
	anyGrad := false
	for _, gr := range li.exitGrads {
		if !gr.IsZero() {
			anyGrad = true
			break
		}
	}
	if !anyGrad {
		return nil
	}

	b := s.b
	g := s.g
	bframe := fmt.Sprintf("%s_grad_%d", li.frame, backwardFrameSeq.Add(1))
	// The backward loop runs where the forward loop ran: a frame cannot span
	// devices, so its skeleton, stacks and captures all go beside the forward
	// LoopCond, like the body's gradient nodes beside the body's.
	bb := b.WithScope(bframe).Beside(li.loopCond)

	// Differentiable loop variables; everything integer/bool passes no
	// gradient, so only float variables get a backward counterpart.
	var fvars []*loopVar
	for _, v := range li.vars {
		if v.exit.Out(0).DType().IsFloat() {
			fvars = append(fvars, v)
		}
	}
	if len(fvars) == 0 {
		return nil
	}
	// Invariants that can receive gradient from the body (or a direct
	// passthrough into a NextIteration) get an accumulator.
	nextSet := map[*graph.Node]bool{}
	for _, v := range li.vars {
		nextSet[v.next] = true
	}
	var accInvs []*graph.Node
	for _, inv := range li.invariants {
		if !inv.Out(0).DType().IsFloat() {
			continue
		}
		for _, c := range s.consumers[inv.Out(0)] {
			if li.bodySet[c.Node.ID()] || nextSet[c.Node] {
				accInvs = append(accInvs, inv)
				break
			}
		}
	}

	// Root-level initial values: the forward trip count, the Exit
	// gradients (zeros for unused Exits), and zero accumulators.
	gradInits := make([]graph.Endpoint, len(fvars))
	for i, v := range fvars {
		eg := li.exitGrads[v.exit.ID()]
		if eg.IsZero() {
			gradInits[i] = bb.ZerosLike(v.exit.Out(0))
			continue
		}
		d, err := Densify(bb, eg)
		if err != nil {
			return err
		}
		gradInits[i] = d
	}
	accInits := make([]graph.Endpoint, len(accInvs))
	for j, inv := range accInvs {
		accInits[j] = bb.ZerosLike(inv.Input(0))
	}

	// Backward skeleton, part 1: Enters and Merges (outside the scope, like
	// tf.While builds its own).
	fs := build.NewFrameScope(bb, bframe)
	tEnter := bb.Node("Enter", []graph.Endpoint{li.counter.exit.Out(0)}, bframe+"/count_enter",
		map[string]any{"frame_name": bframe})
	if tEnter == nil {
		return b.Err()
	}
	tMerge := bb.Node("Merge", []graph.Endpoint{tEnter.Out(0)}, bframe+"/count_merge", nil)
	if tMerge == nil {
		return b.Err()
	}
	fs.MarkResident(tEnter, tMerge)
	gvars := make([]*gradLoopVar, len(fvars))
	for i := range fvars {
		gv := &gradLoopVar{}
		gv.enter = bb.Node("Enter", []graph.Endpoint{gradInits[i]}, bframe+"/enter",
			map[string]any{"frame_name": bframe})
		if gv.enter == nil {
			return b.Err()
		}
		gv.merge = bb.Node("Merge", []graph.Endpoint{gv.enter.Out(0)}, bframe+"/merge", nil)
		if gv.merge == nil {
			return b.Err()
		}
		fs.MarkResident(gv.enter, gv.merge)
		gvars[i] = gv
	}
	accs := make([]*gradLoopVar, len(accInvs))
	for j := range accInvs {
		av := &gradLoopVar{}
		av.enter = bb.Node("Enter", []graph.Endpoint{accInits[j]}, bframe+"/acc_enter",
			map[string]any{"frame_name": bframe})
		if av.enter == nil {
			return b.Err()
		}
		av.merge = bb.Node("Merge", []graph.Endpoint{av.enter.Out(0)}, bframe+"/acc_merge", nil)
		if av.merge == nil {
			return b.Err()
		}
		fs.MarkResident(av.enter, av.merge)
		accs[j] = av
	}

	fs.Install()
	defer fs.Remove()

	// Part 2: predicate (t > 0), LoopCond, and the Switch/Exit pairs.
	pred := bb.Op2("Greater", tMerge.Out(0), bb.Const(tensor.ScalarInt(0)))
	bcond := bb.Node("LoopCond", []graph.Endpoint{pred}, bframe+"/loopcond",
		map[string]any{gradFrameAttr: true})
	if bcond == nil {
		return b.Err()
	}
	tSwitch := bb.Node("Switch", []graph.Endpoint{tMerge.Out(0), bcond.Out(0)}, bframe+"/count_switch", nil)
	if tSwitch == nil {
		return b.Err()
	}
	tNext := bb.Node("NextIteration",
		[]graph.Endpoint{bb.Sub(tSwitch.Out(1), bb.Const(tensor.ScalarInt(1)))}, bframe+"/count_next", nil)
	if tNext == nil {
		return b.Err()
	}
	if err := g.AddBackEdge(tMerge, tNext.Out(0)); err != nil {
		return err
	}
	for _, gv := range append(append([]*gradLoopVar{}, gvars...), accs...) {
		gv.sw = bb.Node("Switch", []graph.Endpoint{gv.merge.Out(0), bcond.Out(0)}, bframe+"/switch", nil)
		if gv.sw == nil {
			return b.Err()
		}
		gv.exit = bb.Node("Exit", []graph.Endpoint{gv.sw.Out(0)}, bframe+"/exit", nil)
		if gv.exit == nil {
			return b.Err()
		}
	}

	// Forward-frame values referenced by the body VJP are replaced with
	// stack pops; loop invariants capture their outer source directly.
	popCache := map[graph.Endpoint]graph.Endpoint{}
	var redirectErr error
	fs.Redirect = func(ep graph.Endpoint) (graph.Endpoint, bool) {
		f := graph.NodeFrame(ep.Node)
		if f == "" || f == bframe {
			return graph.Endpoint{}, false
		}
		if redirectErr != nil {
			return graph.Endpoint{}, true
		}
		fail := func(err error) (graph.Endpoint, bool) {
			redirectErr = err
			b.Fail(err)
			return graph.Endpoint{}, true
		}
		if ep.Node.Op() == "Exit" && f != li.frame {
			// Another loop's Exit delivers its value into the enclosing
			// frame: from here it is an ordinary outer value (sequential
			// loop composition), capturable like any other.
			return graph.Endpoint{}, false
		}
		if f != li.frame {
			return fail(fmt.Errorf("autodiff: gradient of loop %s references %s from frame %s; nested control flow is not supported", li.frame, ep, f))
		}
		if v, ok := popCache[ep]; ok {
			return v, true
		}
		if ep.Node.Op() == "Enter" && ep.Node.AttrBool("is_constant", false) {
			// Loop-invariant: the same value every iteration — capture the
			// outer source instead of saving N identical copies.
			v, err := fs.CaptureInto(ep.Node.Input(0))
			if err != nil {
				return fail(err)
			}
			popCache[ep] = v
			return v, true
		}
		switch ep.Node.Op() {
		case "Enter", "Merge", "LoopCond":
			return fail(fmt.Errorf("autodiff: gradient of loop %s references skeleton value %s; differentiating this pattern is not supported", li.frame, ep))
		}
		v, err := li.addStack(bb, fs, g, bframe, bcond, ep)
		if err != nil {
			return fail(err)
		}
		popCache[ep] = v
		return v, true
	}

	// Part 3: the body's vector-Jacobian product, seeded with the gradient
	// variables' per-iteration values on the NextIteration inputs.
	bodyOrder, err := graph.TopoSort(g, li.bodySet)
	if err != nil {
		return fmt.Errorf("autodiff: loop %s body: %w", li.frame, err)
	}
	pendingB := map[graph.Endpoint][]Grad{}
	for i, v := range fvars {
		seed := v.next.Input(0)
		pendingB[seed] = append(pendingB[seed], DenseGrad(gvars[i].sw.Out(1)))
	}
	for i := len(bodyOrder) - 1; i >= 0; i-- {
		n := bodyOrder[i]
		outGrads := make([]Grad, n.NumOutputs())
		any := false
		for o := 0; o < n.NumOutputs(); o++ {
			ep := n.Out(o)
			sum, err := sumGrads(bb, pendingB[ep])
			if err != nil {
				return err
			}
			outGrads[o] = sum
			if !sum.IsZero() {
				any = true
			}
			delete(pendingB, ep)
		}
		if !any || n.NumInputs() == 0 {
			continue
		}
		if n.Op() == "StopGradient" || n.Op() == "PreventGradient" {
			continue
		}
		inGrads, err := applyNodeGrad(bb.Beside(n), n, outGrads)
		if err != nil {
			return fmt.Errorf("in the body of loop %s: %w", li.frame, err)
		}
		if redirectErr != nil {
			return redirectErr
		}
		for ii, gIn := range inGrads {
			if gIn.IsZero() {
				continue
			}
			in := n.Input(ii)
			pendingB[in] = append(pendingB[in], gIn)
		}
	}

	// Part 4: close the backward loop — the VJP w.r.t. each body input
	// becomes the next gradient value, invariant contributions accumulate.
	for i, v := range fvars {
		gIn, err := sumGrads(bb, pendingB[v.bodyIn()])
		if err != nil {
			return err
		}
		delete(pendingB, v.bodyIn())
		var newG graph.Endpoint
		if gIn.IsZero() {
			newG = bb.ZerosLike(gvars[i].sw.Out(1))
		} else {
			if newG, err = Densify(bb, gIn); err != nil {
				return err
			}
		}
		next := bb.Node("NextIteration", []graph.Endpoint{newG}, bframe+"/next", nil)
		if next == nil {
			return b.Err()
		}
		if err := g.AddBackEdge(gvars[i].merge, next.Out(0)); err != nil {
			return err
		}
	}
	for j, inv := range accInvs {
		contrib, err := sumGrads(bb, pendingB[inv.Out(0)])
		if err != nil {
			return err
		}
		delete(pendingB, inv.Out(0))
		newA := accs[j].sw.Out(1)
		if !contrib.IsZero() {
			d, err := Densify(bb, contrib)
			if err != nil {
				return err
			}
			newA = bb.Add(newA, d)
		}
		next := bb.Node("NextIteration", []graph.Endpoint{newA}, bframe+"/acc_next", nil)
		if next == nil {
			return b.Err()
		}
		if err := g.AddBackEdge(accs[j].merge, next.Out(0)); err != nil {
			return err
		}
	}
	for ep, grads := range pendingB {
		if len(grads) > 0 {
			return fmt.Errorf("autodiff: gradient of loop %s escapes the body at %s (%s); this pattern is not supported",
				li.frame, ep, ep.Node.Op())
		}
	}
	if redirectErr != nil {
		return redirectErr
	}
	fs.Remove()

	// Part 5: deliver the loop's gradients into the enclosing sweep — the
	// final gradient value is ∂L/∂(initial value), the accumulator total is
	// ∂L/∂(invariant source).
	for i, v := range fvars {
		s.addPending(v.enter.Input(0), DenseGrad(gvars[i].exit.Out(0)))
	}
	for j, inv := range accInvs {
		s.addPending(inv.Input(0), DenseGrad(accs[j].exit.Out(0)))
	}
	return b.Err()
}

// addStack gives one forward in-loop endpoint a stack: the forward loop
// pushes it every iteration (chained through a fresh token loop variable),
// and the backward loop pops it in reverse (chained likewise). Returns the
// backward-frame endpoint carrying the popped value.
func (li *loopInfo) addStack(bb *build.B, fs *build.FrameScope, g *graph.Graph,
	bframe string, bcond *graph.Node, ep graph.Endpoint) (graph.Endpoint, error) {

	stackName := fmt.Sprintf("%s/stack/%s_%d", bframe, ep.Node.Name(), ep.Index)
	restore := fs.Suspend()
	// Forward side, in the forward frame.
	fzero := bb.Const(tensor.ScalarInt(0))
	tokEnter := bb.Node("Enter", []graph.Endpoint{fzero}, li.frame+"/save_enter",
		map[string]any{"frame_name": li.frame})
	tokMerge := bb.Node("Merge", []graph.Endpoint{tokEnter.Out(0)}, li.frame+"/save_merge",
		map[string]any{graph.FrameAttr: li.frame})
	tokSwitch := bb.Node("Switch", []graph.Endpoint{tokMerge.Out(0), li.loopCond.Out(0)}, li.frame+"/save_switch",
		map[string]any{graph.FrameAttr: li.frame})
	push := bb.Node("StackPush", []graph.Endpoint{ep, tokSwitch.Out(1)}, li.frame+"/save_push",
		map[string]any{"stack": stackName, graph.FrameAttr: li.frame})
	tokNext := bb.Node("NextIteration", []graph.Endpoint{push.Out(0)}, li.frame+"/save_next",
		map[string]any{graph.FrameAttr: li.frame})
	tokExit := bb.Node("Exit", []graph.Endpoint{tokSwitch.Out(0)}, li.frame+"/save_exit",
		map[string]any{graph.FrameAttr: li.frame})
	if tokExit == nil || tokNext == nil {
		restore()
		return graph.Endpoint{}, bb.Err()
	}
	if err := g.AddBackEdge(tokMerge, tokNext.Out(0)); err != nil {
		restore()
		return graph.Endpoint{}, err
	}

	// Backward side, in the backward frame.
	popEnter := bb.Node("Enter", []graph.Endpoint{tokExit.Out(0)}, bframe+"/pop_enter",
		map[string]any{"frame_name": bframe})
	popMerge := bb.Node("Merge", []graph.Endpoint{popEnter.Out(0)}, bframe+"/pop_merge", nil)
	popSwitch := bb.Node("Switch", []graph.Endpoint{popMerge.Out(0), bcond.Out(0)}, bframe+"/pop_switch", nil)
	pop := bb.Node("StackPop", []graph.Endpoint{popSwitch.Out(1)}, bframe+"/pop",
		map[string]any{"stack": stackName, "dtype": ep.DType(), "shape": ep.Shape().Clone()})
	popNext := bb.Node("NextIteration", []graph.Endpoint{pop.Out(1)}, bframe+"/pop_next", nil)
	restore()
	if popNext == nil {
		return graph.Endpoint{}, bb.Err()
	}
	if err := g.AddBackEdge(popMerge, popNext.Out(0)); err != nil {
		return graph.Endpoint{}, err
	}
	fs.MarkResident(popEnter, popMerge, popSwitch, pop, popNext)
	return pop.Out(0), nil
}
