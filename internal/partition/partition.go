// Package partition implements graph partitioning (§3.3): after placement,
// the pruned graph is split into one subgraph per device, and every edge
// that crosses a device boundary is replaced by a Send/Recv operation pair
// that exchanges the tensor through a rendezvous. Control edges that cross
// devices are carried by a Send/Recv of a dummy scalar, preserving ordering.
package partition

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/placement"
	"repro/internal/tensor"
)

// Part is the subgraph assigned to one device.
type Part struct {
	Device device.Spec
	Graph  *graph.Graph
	// Feeds maps original fed endpoints to the local placeholder that
	// stands in for them; the master routes feed values accordingly.
	Feeds map[graph.Endpoint]graph.Endpoint
	// Fetches maps original fetch endpoints produced on this device to
	// their local equivalents.
	Fetches map[graph.Endpoint]graph.Endpoint
	// Targets are the local copies of target nodes assigned here.
	Targets []*graph.Node
}

// Result is a complete partitioning.
type Result struct {
	// Parts is keyed by canonical device name.
	Parts map[string]*Part
}

// Partition splits the node set across devices per the assignment. feeds,
// fetches and targets describe the step so the partitions carry the right
// placeholders and fetch bookkeeping.
func Partition(g *graph.Graph, set graph.NodeSet, asg placement.Assignment,
	feeds, fetches []graph.Endpoint, targets []*graph.Node) (*Result, error) {

	order, err := graph.TopoSort(g, set)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	fed := map[graph.Endpoint]bool{}
	for _, f := range feeds {
		fed[f] = true
	}

	res := &Result{Parts: map[string]*Part{}}
	part := func(d device.Spec) *Part {
		key := d.String()
		p, ok := res.Parts[key]
		if !ok {
			p = &Part{
				Device:  d,
				Graph:   graph.New(),
				Feeds:   map[graph.Endpoint]graph.Endpoint{},
				Fetches: map[graph.Endpoint]graph.Endpoint{},
			}
			p.Graph.SetSeed(g.Seed())
			res.Parts[key] = p
		}
		return p
	}

	// mapped[origNodeID] is the copied node (in its part).
	mapped := map[int]*graph.Node{}
	// recvCache deduplicates Recv nodes per (original endpoint, device).
	type recvKey struct {
		ep  graph.Endpoint
		dev string
	}
	recvCache := map[recvKey]graph.Endpoint{}
	type ctrlKey struct {
		src int
		dev string
	}
	ctrlRecvCache := map[ctrlKey]*graph.Node{}
	type backEdge struct {
		merge  *graph.Node // copied merge node
		origin graph.Endpoint
		dev    device.Spec
	}
	var backEdges []backEdge

	edgeName := func(ep graph.Endpoint) string {
		return fmt.Sprintf("edge:%s:%d", ep.Node.Name(), ep.Index)
	}

	// localInput resolves one original input endpoint for a consumer
	// placed on dstDev, inserting placeholders (for feeds) or Send/Recv
	// pairs (for device crossings) as needed.
	localInput := func(in graph.Endpoint, dstDev device.Spec) (graph.Endpoint, error) {
		dst := part(dstDev)
		if fed[in] {
			if ep, ok := dst.Feeds[in]; ok {
				return ep, nil
			}
			ph, err := dst.Graph.AddNode("Placeholder", nil, graph.NodeArgs{
				Name: fmt.Sprintf("feed/%s_%d", in.Node.Name(), in.Index),
				Attrs: map[string]any{
					"dtype": in.DType(),
					"shape": in.Shape().Clone(),
				},
				Device: dstDev.String(),
			})
			if err != nil {
				return graph.Endpoint{}, err
			}
			dst.Feeds[in] = ph.Out(0)
			return ph.Out(0), nil
		}
		srcDev, ok := asg[in.Node.ID()]
		if !ok {
			return graph.Endpoint{}, fmt.Errorf("partition: producer %s is unplaced", in.Node.Name())
		}
		srcCopy, ok := mapped[in.Node.ID()]
		if !ok {
			return graph.Endpoint{}, fmt.Errorf("partition: producer %s not yet copied (cycle?)", in.Node.Name())
		}
		if srcDev.String() == dstDev.String() {
			return srcCopy.Out(in.Index), nil
		}
		if in.Spec().IsRef {
			return graph.Endpoint{}, fmt.Errorf("partition: reference edge %v cannot cross from %v to %v (placement bug)",
				in, srcDev, dstDev)
		}
		key := recvKey{ep: in, dev: dstDev.String()}
		if ep, ok := recvCache[key]; ok {
			return ep, nil
		}
		// Send on the source device… (§3.3: "Send transmits its single
		// input to a specified device as soon as the tensor is
		// available").
		src := part(srcDev)
		if _, err := src.Graph.AddNode("Send", []graph.Endpoint{srcCopy.Out(in.Index)}, graph.NodeArgs{
			Name: fmt.Sprintf("send/%s_%d/to/%s", in.Node.Name(), in.Index, sanitize(dstDev.String())),
			Attrs: map[string]any{
				"tensor_name": edgeName(in),
				"send_device": srcDev.String(),
				"recv_device": dstDev.String(),
			},
			Device: srcDev.String(),
		}); err != nil {
			return graph.Endpoint{}, err
		}
		// …and the matching Recv on the destination.
		attrs := map[string]any{
			"tensor_name": edgeName(in),
			"send_device": srcDev.String(),
			"recv_device": dstDev.String(),
			"dtype":       in.DType(),
			// Partial shapes too: without one a Recv infers a scalar, and
			// shape inference of its consumers fails on the copy (the rows a
			// sharded lookup sends have a dynamic count).
			"shape_hint": in.Shape().Clone(),
		}
		recv, err := dst.Graph.AddNode("Recv", nil, graph.NodeArgs{
			Name:   fmt.Sprintf("recv/%s_%d/from/%s", in.Node.Name(), in.Index, sanitize(srcDev.String())),
			Attrs:  attrs,
			Device: dstDev.String(),
		})
		if err != nil {
			return graph.Endpoint{}, err
		}
		recvCache[key] = recv.Out(0)
		return recv.Out(0), nil
	}

	for _, n := range order {
		dev, ok := asg[n.ID()]
		if !ok {
			return nil, fmt.Errorf("partition: node %s is unplaced", n.Name())
		}
		p := part(dev)

		var inputs []graph.Endpoint
		var pending []backEdge
		for i, in := range n.Inputs() {
			// Back edges (NextIteration → Merge) are wired after all
			// nodes exist; they never cross devices.
			if n.Op() == "Merge" && in.Node.Op() == "NextIteration" {
				srcDev := asg[in.Node.ID()]
				if srcDev.String() != dev.String() {
					return nil, fmt.Errorf("partition: loop back edge %v would cross devices; "+
						"loop bodies must be placed on one device", in)
				}
				pending = append(pending, backEdge{origin: in, dev: dev})
				continue
			}
			ep, err := localInput(in, dev)
			if err != nil {
				return nil, fmt.Errorf("partition: input %d of %s: %w", i, n.Name(), err)
			}
			inputs = append(inputs, ep)
		}

		var control []*graph.Node
		for _, c := range n.ControlInputs() {
			srcDev := asg[c.ID()]
			srcCopy := mapped[c.ID()]
			if srcCopy == nil {
				return nil, fmt.Errorf("partition: control predecessor %s not copied", c.Name())
			}
			if srcDev.String() == dev.String() {
				control = append(control, srcCopy)
				continue
			}
			// Cross-device control edge: carry a dummy tensor.
			key := ctrlKey{src: c.ID(), dev: dev.String()}
			recvNode, ok := ctrlRecvCache[key]
			if !ok {
				src := part(srcDev)
				name := fmt.Sprintf("ctrl:%s->%s", c.Name(), sanitize(dev.String()))
				dummy, err := src.Graph.AddNode("Const", nil, graph.NodeArgs{
					Name:    "ctrl_dummy/" + c.Name(),
					Attrs:   map[string]any{"value": tensor.ScalarInt(0), "dtype": tensor.Int32},
					Device:  srcDev.String(),
					Control: []*graph.Node{srcCopy},
				})
				if err != nil {
					return nil, err
				}
				if _, err := src.Graph.AddNode("Send", []graph.Endpoint{dummy.Out(0)}, graph.NodeArgs{
					Name: "ctrl_send/" + c.Name() + "/" + sanitize(dev.String()),
					Attrs: map[string]any{
						"tensor_name": name,
						"send_device": srcDev.String(),
						"recv_device": dev.String(),
					},
					Device: srcDev.String(),
				}); err != nil {
					return nil, err
				}
				recvNode, err = p.Graph.AddNode("Recv", nil, graph.NodeArgs{
					Name: "ctrl_recv/" + c.Name(),
					Attrs: map[string]any{
						"tensor_name": name,
						"send_device": srcDev.String(),
						"recv_device": dev.String(),
						"dtype":       tensor.Int32,
					},
					Device: dev.String(),
				})
				if err != nil {
					return nil, err
				}
				ctrlRecvCache[key] = recvNode
			}
			control = append(control, recvNode)
		}

		attrs := map[string]any{}
		for _, k := range n.AttrNames() {
			attrs[k] = n.Attr(k)
		}
		copied, err := p.Graph.AddNode(n.Op(), inputs, graph.NodeArgs{
			Name:    n.Name(),
			Attrs:   attrs,
			Device:  dev.String(),
			Control: control,
		})
		if err != nil {
			return nil, fmt.Errorf("partition: copying %s: %w", n.Name(), err)
		}
		mapped[n.ID()] = copied
		for i := range pending {
			pending[i].merge = copied
		}
		backEdges = append(backEdges, pending...)
	}

	for _, be := range backEdges {
		srcCopy := mapped[be.origin.Node.ID()]
		if srcCopy == nil {
			return nil, fmt.Errorf("partition: back-edge producer %s missing", be.origin.Node.Name())
		}
		p := part(be.dev)
		if err := p.Graph.AddBackEdge(be.merge, srcCopy.Out(be.origin.Index)); err != nil {
			return nil, err
		}
	}

	// Fetch and target bookkeeping.
	for _, f := range fetches {
		if fed[f] {
			continue // served directly from the feed by the master
		}
		dev, ok := asg[f.Node.ID()]
		if !ok {
			return nil, fmt.Errorf("partition: fetch %v is unplaced", f)
		}
		copied := mapped[f.Node.ID()]
		if copied == nil {
			return nil, fmt.Errorf("partition: fetch %v was pruned", f)
		}
		part(dev).Fetches[f] = copied.Out(f.Index)
	}
	for _, t := range targets {
		dev, ok := asg[t.ID()]
		if !ok {
			return nil, fmt.Errorf("partition: target %s is unplaced", t.Name())
		}
		copied := mapped[t.ID()]
		if copied == nil {
			return nil, fmt.Errorf("partition: target %s was pruned", t.Name())
		}
		p := part(dev)
		p.Targets = append(p.Targets, copied)
	}
	return res, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '/', ':':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}
