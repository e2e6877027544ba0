package graph

import (
	"bytes"
	"fmt"
	"maps"
	"slices"

	"repro/internal/tensor"
	"repro/internal/wire"
)

// GraphDef is the serializable form of a graph, used by the distributed
// master to register per-device subgraphs with remote workers (§3.3, §5)
// and by tools that inspect saved graphs.
type GraphDef struct {
	Seed  int64
	Nodes []NodeDef
}

// NodeDef serializes one node. Inputs reference producers as "name:index";
// BackEdges carry the NextIteration→Merge inputs that close loops.
type NodeDef struct {
	Name      string
	Op        string
	Device    string
	Inputs    []string
	BackEdges []string
	Control   []string
	Attrs     map[string]any
}

// The byte format (internal/wire): a preface (magic + format version), Seed,
// then the nodes, each its strings and string lists in field order and then
// its attributes, sorted by name, each a name, a kind byte and the value.
func (d *GraphDef) wire(c *wire.Codec) {
	c.Magic("TFGOGDF1")
	wire.Num(c, &d.Seed)
	wire.List(c, &d.Nodes, func(n *NodeDef) { n.wire(c) })
}

func (n *NodeDef) wire(c *wire.Codec) {
	for _, s := range []*string{&n.Name, &n.Op, &n.Device} {
		c.Str(s)
	}
	for _, l := range []*[]string{&n.Inputs, &n.BackEdges, &n.Control} {
		wire.List(c, l, c.Str)
	}
	names := slices.Sorted(maps.Keys(n.Attrs))
	if n.Attrs == nil {
		n.Attrs = map[string]any{}
	}
	wire.List(c, &names, func(k *string) {
		c.Str(k)
		if c.Encoding() {
			wireAttr(c, n.Name, *k, n.Attrs[*k])
		} else if _, dup := n.Attrs[*k]; dup {
			c.Fail("node %s has attr %s twice", n.Name, *k)
		} else {
			n.Attrs[*k] = wireAttr(c, n.Name, *k, nil)
		}
	})
}

// attrKinds moves each attribute type; an attribute's kind byte is its
// index here.
var attrKinds = [...]attrKind{
	kind(attrInt),
	kind((*wire.Codec).F64),
	kind((*wire.Codec).Flag),
	kind((*wire.Codec).Str),
	kind(listOf[[]int](attrInt)),
	kind(listOf[[]string]((*wire.Codec).Str)),
	kind(attrShape),
	kind(attrDType),
	kind((*wire.Codec).Tensor),
	kind(listOf[[]tensor.DType](attrDType)),
	kind(listOf[[]tensor.Shape](attrShape)),
}

var (
	attrInt   = func(c *wire.Codec, p *int) { wire.Num(c, p) }
	attrShape = listOf[tensor.Shape](attrInt)
	attrDType = func(c *wire.Codec, p *tensor.DType) { *p = tensor.DType(c.Uint(uint64(*p), 1)) }
)

// attrKind is one attribute type: whether a value is of it, and how the
// value moves (a zero value when decoding).
type attrKind struct {
	is   func(any) bool
	move func(*wire.Codec, any) any
}

func kind[T any](f func(*wire.Codec, *T)) attrKind {
	return attrKind{
		is:   func(v any) bool { _, ok := v.(T); return ok },
		move: func(c *wire.Codec, v any) any { x, _ := v.(T); f(c, &x); return x },
	}
}

func listOf[S ~[]E, E any](f func(*wire.Codec, *E)) func(*wire.Codec, *S) {
	return func(c *wire.Codec, p *S) { wire.List(c, p, func(e *E) { f(c, e) }) }
}

// wireAttr moves attribute key of node: its kind byte, then its value. It
// encodes v, or decodes (v nil) and returns the value; integers come back as
// int and floats as float64.
func wireAttr(c *wire.Codec, node, key string, v any) any {
	switch x := v.(type) {
	case int32:
		v = int(x)
	case int64:
		v = int(x)
	case float32:
		v = float64(x)
	}
	k := 0
	for k < len(attrKinds) && !attrKinds[k].is(v) {
		k++
	}
	if c.Encoding() && k == len(attrKinds) {
		c.Fail("node %s attr %s: cannot serialize attribute of type %T", node, key, v)
	}
	if k = int(c.Uint(uint64(k), 1)); k >= len(attrKinds) {
		c.Fail("node %s attr %s: unknown attribute kind %d", node, key, k)
		return nil
	}
	return attrKinds[k].move(c, v)
}

// isBackEdge reports whether n's input from src closes a loop: the only
// legal cycles are NextIteration→Merge (AddBackEdge admits nothing else).
func isBackEdge(n, src *Node) bool { return n.op == "Merge" && src.op == "NextIteration" }

// defOrder returns the nodes with every forward data and control input
// ahead of its consumer, which is what FromDef needs to resolve references
// as it adds nodes. Creation order already has that property until a
// rewriting pass points an input at a later-created node (a consumer of a
// fused-away Relu now reads the fused node), so nodes are visited in
// creation order and a graph no pass has touched keeps it.
func defOrder(nodes []*Node) ([]*Node, error) {
	const (
		visiting = 1
		done     = 2
	)
	state := make([]uint8, len(nodes))
	order := make([]*Node, 0, len(nodes))
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n.id] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("graph: cycle through %s; only NextIteration→Merge back edges may form cycles", n.name)
		}
		state[n.id] = visiting
		for _, in := range n.inputs {
			if !isBackEdge(n, in.Node) {
				if err := visit(in.Node); err != nil {
					return err
				}
			}
		}
		for _, c := range n.control {
			if err := visit(c); err != nil {
				return err
			}
		}
		state[n.id] = done
		order = append(order, n)
		return nil
	}
	for _, n := range nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// ToDef serializes the graph.
func (g *Graph) ToDef() (*GraphDef, error) {
	def := &GraphDef{Seed: g.Seed()}
	order, err := defOrder(g.Nodes())
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		nd := NodeDef{
			Name:   n.Name(),
			Op:     n.Op(),
			Device: n.Device(),
			Attrs:  maps.Clone(n.attrs),
		}
		for _, in := range n.Inputs() {
			ref := fmt.Sprintf("%s:%d", in.Node.Name(), in.Index)
			if isBackEdge(n, in.Node) {
				nd.BackEdges = append(nd.BackEdges, ref)
			} else {
				nd.Inputs = append(nd.Inputs, ref)
			}
		}
		for _, c := range n.ControlInputs() {
			nd.Control = append(nd.Control, c.Name())
		}
		def.Nodes = append(def.Nodes, nd)
	}
	return def, nil
}

// FromDef reconstructs a graph from its serialized form.
func FromDef(def *GraphDef) (*Graph, error) {
	g := New()
	g.SetSeed(def.Seed)
	type pendingBack struct {
		merge *Node
		ref   string
	}
	var backs []pendingBack
	for _, nd := range def.Nodes {
		inputs := make([]Endpoint, 0, len(nd.Inputs))
		for _, ref := range nd.Inputs {
			ep, err := g.ParseEndpoint(ref)
			if err != nil {
				return nil, fmt.Errorf("graph: input of node %s: %w", nd.Name, err)
			}
			inputs = append(inputs, ep)
		}
		control := make([]*Node, 0, len(nd.Control))
		for _, name := range nd.Control {
			c := g.ByName(name)
			if c == nil {
				return nil, fmt.Errorf("graph: control ref %q names unknown node", name)
			}
			control = append(control, c)
		}
		n, err := g.AddNode(nd.Op, inputs, NodeArgs{
			Name: nd.Name, Attrs: maps.Clone(nd.Attrs), Device: nd.Device, Control: control,
		})
		if err != nil {
			return nil, fmt.Errorf("graph: reconstructing %s: %w", nd.Name, err)
		}
		if n.Name() != nd.Name {
			return nil, fmt.Errorf("graph: name %q was renamed to %q during reconstruction", nd.Name, n.Name())
		}
		for _, ref := range nd.BackEdges {
			backs = append(backs, pendingBack{merge: n, ref: ref})
		}
	}
	for _, pb := range backs {
		ep, err := g.ParseEndpoint(pb.ref)
		if err != nil {
			return nil, fmt.Errorf("graph: back edge of node %s: %w", pb.merge.Name(), err)
		}
		if err := g.AddBackEdge(pb.merge, ep); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Marshal encodes the graph.
func (g *Graph) Marshal() ([]byte, error) {
	def, err := g.ToDef()
	if err != nil {
		return nil, err
	}
	c := wire.NewEncoder()
	if def.wire(c); c.End() != nil {
		return nil, fmt.Errorf("graph: GraphDef: %w", c.End())
	}
	var b bytes.Buffer
	_, err = c.WriteTo(&b)
	return b.Bytes(), err
}

// Unmarshal reconstructs a graph from Marshal's output. The bytes are
// untrusted: nothing is sized from them beyond len(data).
func Unmarshal(data []byte) (*Graph, error) {
	var def GraphDef
	c := wire.NewDecoder(bytes.NewReader(data), len(data))
	if def.wire(c); c.End() != nil {
		return nil, fmt.Errorf("graph: GraphDef: %w", c.End())
	}
	return FromDef(&def)
}
