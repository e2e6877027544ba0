package graph

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/tensor"
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
	Attrs     map[string]AttrDef
}

// AttrDef is a tagged attribute value. Exactly one field is set.
type AttrDef struct {
	Kind    string // "int","float","bool","string","ints","strings","shape","dtype","tensor","dtypes","shapes"
	I       int64
	F       float64
	B       bool
	S       string
	Ints    []int
	Strings []string
	Shape   []int
	DType   uint8
	Tensor  *tensor.Tensor
	DTypes  []uint8
	Shapes  [][]int
}

func encodeAttr(v any) (AttrDef, error) {
	switch x := v.(type) {
	case int:
		return AttrDef{Kind: "int", I: int64(x)}, nil
	case int32:
		return AttrDef{Kind: "int", I: int64(x)}, nil
	case int64:
		return AttrDef{Kind: "int", I: x}, nil
	case float32:
		return AttrDef{Kind: "float", F: float64(x)}, nil
	case float64:
		return AttrDef{Kind: "float", F: x}, nil
	case bool:
		return AttrDef{Kind: "bool", B: x}, nil
	case string:
		return AttrDef{Kind: "string", S: x}, nil
	case []int:
		return AttrDef{Kind: "ints", Ints: x}, nil
	case []string:
		return AttrDef{Kind: "strings", Strings: x}, nil
	case tensor.Shape:
		return AttrDef{Kind: "shape", Shape: []int(x)}, nil
	case tensor.DType:
		return AttrDef{Kind: "dtype", DType: uint8(x)}, nil
	case *tensor.Tensor:
		return AttrDef{Kind: "tensor", Tensor: x}, nil
	case []tensor.DType:
		out := make([]uint8, len(x))
		for i, d := range x {
			out[i] = uint8(d)
		}
		return AttrDef{Kind: "dtypes", DTypes: out}, nil
	case []tensor.Shape:
		out := make([][]int, len(x))
		for i, s := range x {
			out[i] = []int(s)
		}
		return AttrDef{Kind: "shapes", Shapes: out}, nil
	default:
		return AttrDef{}, fmt.Errorf("graph: cannot serialize attribute of type %T", v)
	}
}

func (a AttrDef) decode() (any, error) {
	switch a.Kind {
	case "int":
		return int(a.I), nil
	case "float":
		return a.F, nil
	case "bool":
		return a.B, nil
	case "string":
		return a.S, nil
	case "ints":
		return a.Ints, nil
	case "strings":
		return a.Strings, nil
	case "shape":
		return tensor.Shape(a.Shape), nil
	case "dtype":
		return tensor.DType(a.DType), nil
	case "tensor":
		return a.Tensor, nil
	case "dtypes":
		out := make([]tensor.DType, len(a.DTypes))
		for i, d := range a.DTypes {
			out[i] = tensor.DType(d)
		}
		return out, nil
	case "shapes":
		out := make([]tensor.Shape, len(a.Shapes))
		for i, s := range a.Shapes {
			out[i] = tensor.Shape(s)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("graph: unknown attribute kind %q", a.Kind)
	}
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
			Attrs:  map[string]AttrDef{},
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
		for _, k := range n.AttrNames() {
			ad, err := encodeAttr(n.Attr(k))
			if err != nil {
				return nil, fmt.Errorf("graph: node %s attr %s: %w", n.Name(), k, err)
			}
			nd.Attrs[k] = ad
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
		attrs := map[string]any{}
		for k, ad := range nd.Attrs {
			v, err := ad.decode()
			if err != nil {
				return nil, fmt.Errorf("graph: node %s attr %s: %w", nd.Name, k, err)
			}
			attrs[k] = v
		}
		n, err := g.AddNode(nd.Op, inputs, NodeArgs{
			Name: nd.Name, Attrs: attrs, Device: nd.Device, Control: control,
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

// Marshal encodes the graph to bytes (gob).
func (g *Graph) Marshal() ([]byte, error) {
	def, err := g.ToDef()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(def); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Unmarshal reconstructs a graph from Marshal's output.
func Unmarshal(data []byte) (*Graph, error) {
	var def GraphDef
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&def); err != nil {
		return nil, err
	}
	return FromDef(&def)
}
