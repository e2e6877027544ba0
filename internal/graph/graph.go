package graph

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tensor"
)

// Node is one vertex of a dataflow graph: an instance of an operation with
// bound inputs, attributes and an optional device constraint.
type Node struct {
	id      int
	name    string
	op      string
	def     *OpDef
	attrs   map[string]any
	inputs  []Endpoint
	control []*Node
	device  string

	outSpecs []IOSpec
}

// Endpoint identifies a single output of a node — the producer end of an
// edge.
type Endpoint struct {
	Node  *Node
	Index int
}

// String renders the endpoint as "name:index", the canonical edge notation.
func (e Endpoint) String() string {
	if e.Node == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s:%d", e.Node.name, e.Index)
}

// Spec returns the IOSpec of the endpoint.
func (e Endpoint) Spec() IOSpec { return e.Node.outSpecs[e.Index] }

// DType returns the element type carried by the edge.
func (e Endpoint) DType() tensor.DType { return e.Node.outSpecs[e.Index].DType }

// Shape returns the inferred (possibly partial) shape carried by the edge.
func (e Endpoint) Shape() tensor.Shape { return e.Node.outSpecs[e.Index].Shape }

// Bytes returns the static size of the tensor the edge carries, or -1 when
// its inferred shape is not fully defined.
func (e Endpoint) Bytes() int {
	if n := e.Shape().NumElements(); n >= 0 {
		return n * e.DType().Size()
	}
	return -1
}

// ID returns the node's index in its graph; IDs are dense and stable.
func (n *Node) ID() int { return n.id }

// Name returns the node's unique name within its graph.
func (n *Node) Name() string { return n.name }

// Op returns the operation type name.
func (n *Node) Op() string { return n.op }

// Def returns the node's op definition.
func (n *Node) Def() *OpDef { return n.def }

// Stateful reports whether the node's op owns or mutates state.
func (n *Node) Stateful() bool { return n.def.Stateful }

// NumInputs returns the number of data inputs.
func (n *Node) NumInputs() int { return len(n.inputs) }

// Input returns the i-th data input edge.
func (n *Node) Input(i int) Endpoint { return n.inputs[i] }

// Inputs returns the data input edges. Callers must not mutate the slice.
func (n *Node) Inputs() []Endpoint { return n.inputs }

// ControlInputs returns the nodes that must execute before this node in
// every step that runs it. Callers must not mutate the slice.
func (n *Node) ControlInputs() []*Node { return n.control }

// NumOutputs returns the number of outputs.
func (n *Node) NumOutputs() int { return len(n.outSpecs) }

// Out returns the endpoint for output i.
func (n *Node) Out(i int) Endpoint { return Endpoint{Node: n, Index: i} }

// OutSpec returns the spec of output i.
func (n *Node) OutSpec(i int) IOSpec { return n.outSpecs[i] }

// ColocationAttr is the node attribute carrying explicit colocation-group
// hints (§3.3): a []string of node names this node must be placed with. The
// build layer writes it (B.ColocateWith) and the placer unions the named
// groups alongside reference-edge colocation.
const ColocationAttr = "_colocate"

// Control-flow metadata attributes (§3.4, §4.1). The construction layer
// (tf.Cond / tf.While via build.FrameScope) records them so the gradient
// builder can recover the structure of conditionals and loops without
// re-deriving it from the wiring.
const (
	// FrameAttr names the loop frame a node executes in. Enter nodes carry
	// their frame in the "frame_name" attribute instead (their input lives
	// in the parent frame); use NodeFrame for the uniform view.
	FrameAttr = "_frame"
	// CondPredAttr (with CondPredIndexAttr) records, on a Merge built by a
	// conditional, the node name and output index of the predicate that
	// gated the matching Switches.
	CondPredAttr      = "_cond_pred"
	CondPredIndexAttr = "_cond_pred_index"
	// LoopCounterAttr marks the Enter (and Exit) of the hidden trip-count
	// counter a While loop threads alongside the user's loop variables; the
	// gradient builder follows the marked Enter's wiring to the Exit whose
	// value is the forward trip count.
	LoopCounterAttr = "_loop_counter"
)

// NodeFrame returns the name of the control-flow frame n executes in, or ""
// for nodes in the root frame. Enter nodes report the frame they push into.
func NodeFrame(n *Node) string {
	if n.Op() == "Enter" {
		return n.AttrString("frame_name", "")
	}
	return n.AttrString(FrameAttr, "")
}

// Colocation returns the node's explicit colocation hints (node names), or
// nil.
func (n *Node) Colocation() []string {
	v, _ := n.attrs[ColocationAttr].([]string)
	return v
}

// Device returns the node's device constraint (may be empty or partial,
// e.g. "/job:ps/task:1" — §3.3).
func (n *Node) Device() string { return n.device }

// SetDevice replaces the node's device constraint. The placer interprets it.
func (n *Node) SetDevice(d string) { n.device = d }

// Attr returns the named attribute value, or nil.
func (n *Node) Attr(key string) any { return n.attrs[key] }

// SetAttr records an attribute after construction. It exists for metadata
// stamped by graph rewrites (control-flow frames, gradient bookkeeping);
// attributes consumed by shape inference must be present at AddNode time.
func (n *Node) SetAttr(key string, v any) { n.attrs[key] = v }

// AttrNames returns the node's attribute keys in sorted order.
func (n *Node) AttrNames() []string {
	return slices.Sorted(maps.Keys(n.attrs))
}

func (n *Node) String() string {
	return fmt.Sprintf("%s = %s(%d inputs)", n.name, n.op, len(n.inputs))
}

// Graph is a dataflow graph under construction or execution. Nodes are
// appended and never removed; consumers that need a subset (pruning,
// partitioning) work with node sets instead of mutating the graph,
// which is what lets multiple concurrent steps share one graph (§3.2).
type Graph struct {
	mu     sync.RWMutex
	nodes  []*Node
	byName map[string]*Node
	seed   int64
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{byName: make(map[string]*Node)}
}

// SetSeed sets the graph-level random seed that seeds stateful random ops.
func (g *Graph) SetSeed(seed int64) { g.seed = seed }

// Seed returns the graph-level random seed.
func (g *Graph) Seed() int64 { return g.seed }

// NumNodes returns the number of nodes added so far.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// Nodes returns a snapshot of the node list in insertion order.
func (g *Graph) Nodes() []*Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Node, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Node returns a node by id.
func (g *Graph) Node(id int) *Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes[id]
}

// ByName returns the node with the given name, or nil.
func (g *Graph) ByName(name string) *Node {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.byName[name]
}

// ParseEndpoint resolves the textual edge notation "name:index" to an output
// of a node of g. The split is at the last colon, the index is plain decimal
// digits (no sign, no trailing bytes) and must be one of the node's outputs;
// a reference without a colon names output 0, as in the reference system.
func (g *Graph) ParseEndpoint(ref string) (Endpoint, error) {
	name, idx := ref, uint64(0)
	if i := strings.LastIndexByte(ref, ':'); i >= 0 {
		var err error
		if idx, err = strconv.ParseUint(ref[i+1:], 10, 31); err != nil {
			return Endpoint{}, fmt.Errorf("graph: endpoint ref %q: output index is not a decimal number", ref)
		}
		name = ref[:i]
	}
	n := g.ByName(name)
	if n == nil {
		return Endpoint{}, fmt.Errorf("graph: endpoint ref %q names no node", ref)
	}
	if int(idx) >= n.NumOutputs() {
		return Endpoint{}, fmt.Errorf("graph: endpoint ref %q indexes output %d of a node with %d outputs", ref, idx, n.NumOutputs())
	}
	return n.Out(int(idx)), nil
}

// UniqueName derives an unused node name from the given prefix, mirroring
// the reference API's automatic uniquification.
func (g *Graph) UniqueName(prefix string) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.uniqueNameLocked(prefix)
}

func (g *Graph) uniqueNameLocked(prefix string) string {
	if prefix == "" {
		prefix = "node"
	}
	if _, taken := g.byName[prefix]; !taken {
		return prefix
	}
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		if _, taken := g.byName[name]; !taken {
			return name
		}
	}
}

// NodeArgs carries the optional arguments of AddNode.
type NodeArgs struct {
	// Name is the requested node name; it is uniquified if taken and
	// generated from the op type if empty.
	Name string
	// Attrs are the compile-time attributes.
	Attrs map[string]any
	// Device is the (possibly partial) device constraint.
	Device string
	// Control lists control-dependency predecessors.
	Control []*Node
}

// AddNode validates and appends a node. Validation checks the op exists,
// arity is within bounds, all inputs belong to this graph, and shape
// inference succeeds; the inferred output specs are stored on the node.
func (g *Graph) AddNode(opType string, inputs []Endpoint, args NodeArgs) (*Node, error) {
	def, err := LookupOp(opType)
	if err != nil {
		return nil, err
	}
	if len(inputs) < def.MinInputs || (def.MaxInputs >= 0 && len(inputs) > def.MaxInputs) {
		return nil, fmt.Errorf("graph: op %s wants [%d,%d] inputs, got %d",
			opType, def.MinInputs, def.MaxInputs, len(inputs))
	}

	g.mu.Lock()
	defer g.mu.Unlock()

	inSpecs := make([]IOSpec, len(inputs))
	for i, in := range inputs {
		if in.Node == nil {
			return nil, fmt.Errorf("graph: %s input %d is nil", opType, i)
		}
		if in.Node.id >= len(g.nodes) || g.nodes[in.Node.id] != in.Node {
			return nil, fmt.Errorf("graph: %s input %d (%s) belongs to a different graph", opType, i, in)
		}
		if in.Index < 0 || in.Index >= in.Node.NumOutputs() {
			return nil, fmt.Errorf("graph: %s input %d references output %d of %s which has %d outputs",
				opType, i, in.Index, in.Node.name, in.Node.NumOutputs())
		}
		inSpecs[i] = in.Spec()
	}
	for _, c := range args.Control {
		if c == nil || c.id >= len(g.nodes) || g.nodes[c.id] != c {
			return nil, fmt.Errorf("graph: %s has a control input from a different graph", opType)
		}
	}

	name := args.Name
	if name == "" {
		name = opType
	}
	name = g.uniqueNameLocked(name)

	n := &Node{
		id:      len(g.nodes),
		name:    name,
		op:      opType,
		def:     def,
		attrs:   args.Attrs,
		inputs:  append([]Endpoint(nil), inputs...),
		control: append([]*Node(nil), args.Control...),
		device:  args.Device,
	}
	if n.attrs == nil {
		n.attrs = map[string]any{}
	}
	outSpecs, err := def.Infer(n, inSpecs)
	if err != nil {
		return nil, fmt.Errorf("graph: %s (%s): %w", name, opType, err)
	}
	n.outSpecs = outSpecs
	g.nodes = append(g.nodes, n)
	g.byName[name] = n
	return n, nil
}

// AddBackEdge appends ep as an extra data input of a Merge node: the
// NextIteration back edge that closes a loop (§3.4). It is the only legal
// way to create a cycle, and TopoSort ignores edges sourced at
// NextIteration nodes accordingly.
func (g *Graph) AddBackEdge(merge *Node, ep Endpoint) error {
	if merge.op != "Merge" {
		return fmt.Errorf("graph: back edges may only target Merge nodes, not %s", merge.op)
	}
	if ep.Node.op != "NextIteration" {
		return fmt.Errorf("graph: back edges must come from NextIteration, not %s", ep.Node.op)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	merge.inputs = append(merge.inputs, ep)
	return nil
}

// AddControlEdge appends a control dependency from pre to post after both
// nodes exist, for rewrites that need ordering between already-built
// subgraphs.
func (g *Graph) AddControlEdge(pre, post *Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range post.control {
		if c == pre {
			return
		}
	}
	post.control = append(post.control, pre)
}

// --- Attribute accessors -------------------------------------------------

// AttrInt fetches an integer attribute with a default.
func (n *Node) AttrInt(key string, def int) int {
	switch v := n.attrs[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case int32:
		return int(v)
	}
	return def
}

// AttrFloat fetches a float attribute with a default.
func (n *Node) AttrFloat(key string, def float64) float64 {
	switch v := n.attrs[key].(type) {
	case float64:
		return v
	case float32:
		return float64(v)
	case int:
		return float64(v)
	}
	return def
}

// AttrBool fetches a bool attribute with a default.
func (n *Node) AttrBool(key string, def bool) bool {
	if v, ok := n.attrs[key].(bool); ok {
		return v
	}
	return def
}

// AttrString fetches a string attribute with a default.
func (n *Node) AttrString(key, def string) string {
	if v, ok := n.attrs[key].(string); ok {
		return v
	}
	return def
}

// AttrDType fetches a dtype attribute with a default.
func (n *Node) AttrDType(key string, def tensor.DType) tensor.DType {
	if v, ok := n.attrs[key].(tensor.DType); ok {
		return v
	}
	return def
}

// AttrShape fetches a shape attribute; ok reports presence.
func (n *Node) AttrShape(key string) (tensor.Shape, bool) {
	if v, ok := n.attrs[key].(tensor.Shape); ok {
		return v, true
	}
	if v, ok := n.attrs[key].([]int); ok {
		return tensor.Shape(v), true
	}
	return nil, false
}

// AttrInts fetches an []int attribute.
func (n *Node) AttrInts(key string) ([]int, bool) {
	if v, ok := n.attrs[key].([]int); ok {
		return v, true
	}
	return nil, false
}

// AttrTensor fetches a tensor attribute (Const values).
func (n *Node) AttrTensor(key string) (*tensor.Tensor, bool) {
	if v, ok := n.attrs[key].(*tensor.Tensor); ok {
		return v, true
	}
	return nil, false
}
