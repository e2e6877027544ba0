package graph

// Kernel fusion (§5: "hand-fused kernels for hot paths"). Fuse
// pattern-matches chains the construction and gradient layers emit and
// rewrites their consumers onto single fused kernels:
//
//	MatMul → BiasAdd [→ Relu]                     ⇒ FusedMatMul
//	Log(Softmax(x))                               ⇒ LogSoftmax(x)
//	Neg(Sum(Mul(labels, LogSoftmax(x)), axis=1))  ⇒ SoftmaxCrossEntropyWithLogits
//
// A chain fuses only when it is safe to collapse:
//
//   - every interior endpoint has exactly one consumer (when Fuse runs
//     after gradient construction, gradient reads count and correctly
//     block fusing values the backward pass needs);
//   - all nodes share one device constraint;
//   - all nodes live in the root control-flow frame (frame state must stay
//     1:1 with its loop, as in nonOptimizable);
//   - control inputs of the chain are unioned onto the fused node, and
//     control edges *sourced at* chain members are rehomed onto it;
//   - explicit colocation hints are unioned onto the fused node.
//
// Like the other passes, Fuse never removes nodes — the originals stay in
// the graph, per-step Prune drops them once nothing reaches them.

// Fuse applies all fusion patterns to a fixpoint and returns the number of
// rewrites and the endpoint replacement map.
func Fuse(g *Graph) (int, map[Endpoint]Endpoint, error) {
	n, replaced, _, err := fuse(g)
	return n, replaced, err
}

// fuse is Fuse, also returning the members of every chain it contracted.
func fuse(g *Graph) (int, map[Endpoint]Endpoint, map[*Node]bool, error) {
	replaced := make(map[Endpoint]Endpoint)
	// Fused-away nodes stay in the graph (append-only) with their original
	// wiring, so the scan must remember them or it would re-match the
	// leftover prefix of an already-fused chain.
	consumed := make(map[*Node]bool)
	fused := 0
	for {
		n, err := fuseOne(g, replaced, consumed)
		if err != nil || !n {
			return fused, replaced, consumed, err
		}
		fused++
	}
}

// fuseOne scans for the first fusible chain, rewrites it, and reports
// whether anything changed. Consumer counts are rebuilt per call: each
// rewrite changes them, and graphs at this layer are small enough that the
// rescan is cheap next to kernel time.
func fuseOne(g *Graph, replaced map[Endpoint]Endpoint, consumed map[*Node]bool) (bool, error) {
	uses := endpointUses(g)
	for _, n := range g.Nodes() {
		if consumed[n] {
			continue
		}
		switch n.op {
		case "BiasAdd":
			if ok, err := fuseMatMulBias(g, n, uses, replaced, consumed); ok || err != nil {
				return ok, err
			}
		case "Log":
			if ok, err := fuseLogSoftmax(g, n, uses, replaced, consumed); ok || err != nil {
				return ok, err
			}
		case "Neg":
			if ok, err := fuseCrossEntropy(g, n, uses, replaced, consumed); ok || err != nil {
				return ok, err
			}
		}
	}
	return false, nil
}

// endpointUses counts data-edge uses of every endpoint.
func endpointUses(g *Graph) map[Endpoint]int {
	uses := make(map[Endpoint]int)
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs() {
			uses[in]++
		}
	}
	return uses
}

// soleConsumer returns the single node consuming ep through exactly one
// data edge, or nil.
func soleConsumer(g *Graph, ep Endpoint, uses map[Endpoint]int) *Node {
	if uses[ep] != 1 {
		return nil
	}
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs() {
			if in == ep {
				return n
			}
		}
	}
	return nil
}

// chainFusible checks the shared safety conditions: same device, root
// frame, stateless, and not already rewritten by an earlier fusion.
func chainFusible(replaced map[Endpoint]Endpoint, consumed map[*Node]bool, chain ...*Node) bool {
	dev := chain[0].Device()
	for _, n := range chain {
		if consumed[n] || n.Stateful() || NodeFrame(n) != "" || n.Device() != dev {
			return false
		}
		for i := 0; i < n.NumOutputs(); i++ {
			if _, done := replaced[n.Out(i)]; done {
				return false
			}
		}
	}
	return true
}

// chainArgs unions the chain's control inputs and colocation hints into
// NodeArgs for the fused node.
func chainArgs(name string, attrs map[string]any, chain ...*Node) NodeArgs {
	var control []*Node
	var colocate []string
	inChain := func(c *Node) bool {
		for _, m := range chain {
			if m == c {
				return true
			}
		}
		return false
	}
	for _, n := range chain {
		for _, c := range n.ControlInputs() {
			if inChain(c) {
				continue
			}
			dup := false
			for _, e := range control {
				if e == c {
					dup = true
					break
				}
			}
			if !dup {
				control = append(control, c)
			}
		}
		for _, h := range n.Colocation() {
			dup := false
			for _, e := range colocate {
				if e == h {
					dup = true
					break
				}
			}
			if !dup {
				colocate = append(colocate, h)
			}
		}
	}
	if attrs == nil {
		attrs = map[string]any{}
	}
	if len(colocate) > 0 {
		attrs[ColocationAttr] = colocate
	}
	return NodeArgs{Name: name, Attrs: attrs, Device: chain[0].Device(), Control: control}
}

// finishFusion rewires the terminal endpoint onto the fused node and
// rehomes control edges sourced at chain members.
func finishFusion(g *Graph, fusedNode *Node, terminal Endpoint, replaced map[Endpoint]Endpoint, consumed map[*Node]bool, chain ...*Node) {
	g.rewriteInputs(terminal, fusedNode.Out(0))
	replaced[terminal] = fusedNode.Out(0)
	for _, n := range chain {
		g.rewriteControl(n, fusedNode)
		consumed[n] = true
	}
}

// fuseMatMulBias rewrites MatMul→BiasAdd[→Relu] onto FusedMatMul.
func fuseMatMulBias(g *Graph, bias *Node, uses map[Endpoint]int, replaced map[Endpoint]Endpoint, consumed map[*Node]bool) (bool, error) {
	mm := bias.Input(0).Node
	if mm.Op() != "MatMul" {
		return false, nil
	}
	if soleConsumer(g, mm.Out(0), uses) != bias {
		return false, nil
	}
	chain := []*Node{mm, bias}
	terminal := bias.Out(0)
	activation := ""
	if relu := soleConsumer(g, bias.Out(0), uses); relu != nil && relu.Op() == "Relu" {
		if chainFusible(replaced, consumed, mm, bias, relu) {
			chain = append(chain, relu)
			terminal = relu.Out(0)
			activation = "Relu"
		}
	}
	if !chainFusible(replaced, consumed, chain...) {
		return false, nil
	}
	attrs := map[string]any{
		"transpose_a": mm.AttrBool("transpose_a", false),
		"transpose_b": mm.AttrBool("transpose_b", false),
		"activation":  activation,
	}
	fusedNode, err := g.AddNode("FusedMatMul",
		[]Endpoint{mm.Input(0), mm.Input(1), bias.Input(1)},
		chainArgs(terminal.Node.Name()+"/fused", attrs, chain...))
	if err != nil {
		return false, err
	}
	finishFusion(g, fusedNode, terminal, replaced, consumed, chain...)
	return true, nil
}

// fuseLogSoftmax rewrites Log(Softmax(x)) onto the numerically stable
// LogSoftmax kernel (log of an underflowed softmax saturates at -inf; the
// fused kernel computes x - max - log Σ exp directly).
func fuseLogSoftmax(g *Graph, log *Node, uses map[Endpoint]int, replaced map[Endpoint]Endpoint, consumed map[*Node]bool) (bool, error) {
	sm := log.Input(0).Node
	if sm.Op() != "Softmax" || soleConsumer(g, sm.Out(0), uses) != log {
		return false, nil
	}
	if !chainFusible(replaced, consumed, sm, log) {
		return false, nil
	}
	fusedNode, err := g.AddNode("LogSoftmax",
		[]Endpoint{sm.Input(0)},
		chainArgs(log.Name()+"/fused", nil, sm, log))
	if err != nil {
		return false, err
	}
	finishFusion(g, fusedNode, log.Out(0), replaced, consumed, sm, log)
	return true, nil
}

// fuseCrossEntropy rewrites the hand-built cross-entropy
// Neg(Sum(Mul(labels, LogSoftmax(x)), axis=1)) onto the fused
// SoftmaxCrossEntropyWithLogits kernel, which shares the row max and
// log-sum-exp between the loss and its cached backprop output.
func fuseCrossEntropy(g *Graph, neg *Node, uses map[Endpoint]int, replaced map[Endpoint]Endpoint, consumed map[*Node]bool) (bool, error) {
	sum := neg.Input(0).Node
	if sum.Op() != "Sum" || soleConsumer(g, sum.Out(0), uses) != neg {
		return false, nil
	}
	axes, ok := sum.AttrInts("reduction_indices")
	if !ok || len(axes) != 1 || (axes[0] != 1 && axes[0] != -1) || sum.AttrBool("keep_dims", false) {
		return false, nil
	}
	mul := sum.Input(0).Node
	if mul.Op() != "Mul" || soleConsumer(g, mul.Out(0), uses) != sum {
		return false, nil
	}
	// Mul is commutative: find the LogSoftmax operand on either side.
	var ls *Node
	var labels Endpoint
	for i := 0; i < 2; i++ {
		if cand := mul.Input(i).Node; cand.Op() == "LogSoftmax" {
			ls = cand
			labels = mul.Input(1 - i)
			break
		}
	}
	if ls == nil || soleConsumer(g, ls.Out(0), uses) != mul {
		return false, nil
	}
	logits := ls.Input(0)
	if logits.Shape().Rank() != 2 || labels.Shape().Rank() != 2 {
		return false, nil
	}
	if !chainFusible(replaced, consumed, ls, mul, sum, neg) {
		return false, nil
	}
	fusedNode, err := g.AddNode("SoftmaxCrossEntropyWithLogits",
		[]Endpoint{logits, labels},
		chainArgs(neg.Name()+"/fused", nil, ls, mul, sum, neg))
	if err != nil {
		return false, err
	}
	finishFusion(g, fusedNode, neg.Out(0), replaced, consumed, ls, mul, sum, neg)
	return true, nil
}
