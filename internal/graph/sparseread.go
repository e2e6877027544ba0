package graph

// SparseReadPass rewires every root-frame Gather(Read(ref), idx) onto a new
// Gather(ref, idx) (§4.2 / Figure 3: "the Gather is colocated with the
// variable on which it operates"). The client's spelling is the
// differentiable one — autodiff reaches the table through the Read — but the
// Read hands out the whole table (so the step's sparse write must copy it
// before writing), and a lookup constrained to another device than the
// variable pulls all of it across every step. The kernel reads a
// variable in place, so the new node's reference edge colocates it with the
// variable (placement's rule), the indices go to the shard and only the rows
// leave. It stands where the Read stood — device constraint, colocation
// hints, control inputs — and also waits for the Gather's control inputs;
// the Read stays for its other consumers, and nothing is removed.
//
// Worth it: on one device constraint nothing travels differently and a
// full-table copy per step is saved; across constraints the lookup stays as
// it is when rows plus indices are statically known to be no smaller than
// the table. Safe: a write to the variable that waits for the Read but not
// for the Gather could overtake an in-place read, so that lookup keeps its
// snapshot.
func SparseReadPass() Pass {
	return Pass{Name: "sparse-read", Run: func(g *Graph, res *Result) error {
		for _, n := range g.Nodes() {
			if err := sparseRead(g, n, res); err != nil {
				return err
			}
		}
		return nil
	}}
}

func sparseRead(g *Graph, n *Node, res *Result) error {
	// A lookup an earlier pass (this run) or an earlier run (Dead) superseded
	// has no consumer left to rewire.
	if n.op != "Gather" || NodeFrame(n) != "" || n.Dead() || res.Rewired[n.Out(0)] != "" {
		return nil
	}
	read, idx := n.inputs[0].Node, n.inputs[1]
	if read.op != "Read" || NodeFrame(read) != "" {
		return nil
	}
	if n.device != read.device {
		table, rows, ids := read.Out(0).Bytes(), n.Out(0).Bytes(), idx.Bytes()
		if table >= 0 && rows >= 0 && ids >= 0 && rows+ids >= table {
			return nil
		}
	}
	if writeOvertakes(g, read, n) {
		return nil
	}
	sparse, err := g.AddNode("Gather", []Endpoint{read.inputs[0], idx}, chainArgs(n.name+"/sparse", nil, read))
	if err != nil {
		return err
	}
	for _, c := range n.control {
		if c != read {
			g.AddControlEdge(c, sparse)
		}
	}
	g.rewriteInputs(n.Out(0), sparse.Out(0))
	g.rewriteControl(n, sparse)
	res.Sparse++
	res.Replaced[n.Out(0)] = sparse.Out(0)
	res.Rewired[n.Out(0)], res.Rewired[read.Out(0)] = "sparse-read", "sparse-read"
	return nil
}

// writeOvertakes reports whether some other consumer of read's variable
// reference runs after read without waiting for gather. reach holds, per
// node, bit 0 if it is downstream of read (data or control edges) and bit 1
// if it is downstream of gather.
func writeOvertakes(g *Graph, read, gather *Node) bool {
	nodes := g.Nodes()
	reach := map[int]uint8{read.id: 1, gather.id: 2}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			r := reach[n.id]
			for _, in := range n.inputs {
				r |= reach[in.Node.id]
			}
			for _, c := range n.control {
				r |= reach[c.id]
			}
			if r != reach[n.id] {
				reach[n.id], changed = r, true
			}
		}
	}
	for _, n := range nodes {
		for _, in := range n.inputs {
			if in == read.inputs[0] && n != read && reach[n.id] == 1 {
				return true
			}
		}
	}
	return false
}
