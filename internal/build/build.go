// Package build is the graph-construction layer between the raw graph
// representation (internal/graph) and the public client library (package tf).
// It mirrors the role of the reference system's per-language "graph builder"
// front ends (OSDI'16 §3.1, and the builder/session split of the 2015 white
// paper): client code emits dataflow nodes through a fluent builder, shape
// and dtype inference run at construction time through the op registry, and
// the resulting graph is later pruned, placed and executed by a session.
//
// Three properties make the builder the anchor every higher layer leans on:
//
//   - Deferred error accumulation. Every method records the first
//     construction error and turns subsequent calls into no-ops, so model
//     code composes without per-call error plumbing. Callers check Err once
//     (typically before creating a session).
//
//   - Name scoping. WithScope derives a view of the same builder whose nodes
//     are prefixed ("gradients/MatMul_3"), which is how the gradient
//     subgraph, optimizer state and replicated towers stay legible in one
//     flat namespace.
//
//   - Construction hooks. SetInputMapper rewrites every data input just
//     before a node is added, and SetOnAdd observes every node just after.
//     Control-flow contexts (tf.While) use them to capture outer-frame
//     values through Enter nodes, and autodiff uses the same machinery to
//     remap inputs when splicing gradient subgraphs.
//
//   - Device and colocation scoping (§3.3). WithDevice derives a view that
//     stamps every emitted node with a (possibly partial) device
//     constraint, nested scopes refining outer ones the way the paper's
//     placement constraints compose ("any device in a particular task"
//     refines to a concrete device). ColocateWith records explicit
//     colocation-group hints the placer honors alongside reference-edge
//     colocation. Both compose freely with WithScope.
package build

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// state is the portion of a builder shared between scoped views: the target
// graph, the sticky first error, the construction hooks, and the set of
// variables declared so far. WithScope copies the B but aliases the state,
// so an error recorded under any scope halts construction everywhere.
type state struct {
	g     *graph.Graph
	err   error
	onAdd func(*graph.Node)
	mapIn func(graph.Endpoint) graph.Endpoint
	vars  []*graph.Node
}

// B is a fluent builder over a graph.Graph. The zero value is not usable;
// create one with New. Methods never return errors: the first failure is
// recorded, later calls become inert, and Err surfaces the cause. Failed
// calls return zero Endpoints (or nil nodes), which downstream calls accept
// and ignore, so a broken build degrades into a chain of no-ops rather than
// a panic.
type B struct {
	st    *state
	scope string
	// dev is the device constraint of this view; every node the view emits
	// is stamped with it (§3.3).
	dev device.Spec
	// colocate lists the node names this view's nodes must be placed with.
	colocate []string
}

// New creates a builder targeting g.
func New(g *graph.Graph) *B {
	return &B{st: &state{g: g}, dev: device.Unconstrained()}
}

// Graph returns the graph under construction.
func (b *B) Graph() *graph.Graph { return b.st.g }

// WithScope returns a view of the same builder that prefixes every node name
// with scope (nested scopes join with "/"). The view shares error state,
// hooks, and variable tracking with its parent.
func (b *B) WithScope(scope string) *B {
	child := *b
	if child.scope == "" {
		child.scope = scope
	} else if scope != "" {
		child.scope = child.scope + "/" + scope
	}
	return &child
}

// Scope returns the builder's current name-scope prefix ("" at top level).
func (b *B) Scope() string { return b.scope }

// WithDevice returns a view of the same builder that stamps every emitted
// node with the given (possibly partial) device constraint. Nested scopes
// refine outer ones field by field, the inner scope winning where both
// constrain the same field:
//
//	b.WithDevice("/job:ps").WithDevice("/task:1/device:CPU:0")
//
// emits nodes constrained to "/job:ps/task:1/device:CPU:0". An empty spec
// clears the scope, so b.WithDevice("") emits unconstrained nodes under any
// nesting. A malformed spec records a construction error.
func (b *B) WithDevice(spec string) *B {
	child := *b
	if spec == "" {
		child.dev = device.Unconstrained()
		return &child
	}
	parsed, err := device.ParseSpec(spec)
	if err != nil {
		b.Fail(fmt.Errorf("build: WithDevice(%q): %w", spec, err))
		return &child
	}
	child.dev = child.dev.Override(parsed)
	return &child
}

// Device returns the view's device constraint as a canonical string ("" when
// unconstrained).
func (b *B) Device() string { return b.dev.String() }

// ColocateWith returns a view of the same builder that records, on every
// emitted node, a colocation hint naming n: the placer unions the node into
// n's colocation group exactly as if they shared a reference edge (§3.3).
// Hints accumulate across nested calls. A nil n (e.g. from an earlier failed
// call) records a construction error.
func (b *B) ColocateWith(n *graph.Node) *B {
	child := *b
	if n == nil {
		b.Fail(fmt.Errorf("build: ColocateWith given a nil node"))
		return &child
	}
	child.colocate = append(append([]string(nil), b.colocate...), n.Name())
	return &child
}

// Beside returns a view of the same builder that emits nodes where n is:
// they carry n's device constraint and colocation hints in place of the
// view's own. The gradient builder emits each backward node beside the
// forward node it differentiates, so the placer puts a backward pass where
// its forward pass ran (§3.3, §4.1).
func (b *B) Beside(n *graph.Node) *B {
	child := *b
	spec, err := device.ParseSpec(n.Device())
	if err != nil {
		b.Fail(fmt.Errorf("build: Beside(%s): %w", n.Name(), err))
		return &child
	}
	child.dev, child.colocate = spec, n.Colocation()
	return &child
}

// Err returns the first construction error recorded by any call on this
// builder (or any scoped view of it), or nil.
func (b *B) Err() error { return b.st.err }

// Fail records err as the builder's construction error. Only the first
// error sticks; once set, every construction method becomes a no-op and
// further Fail calls are ignored.
func (b *B) Fail(err error) {
	if b.st.err == nil && err != nil {
		b.st.err = err
	}
}

// SetOnAdd installs a hook invoked with every node the builder adds, and
// returns the previously installed hook (nil if none) so callers can nest
// and restore contexts. Pass nil to remove the hook.
func (b *B) SetOnAdd(f func(*graph.Node)) func(*graph.Node) {
	old := b.st.onAdd
	b.st.onAdd = f
	return old
}

// SetInputMapper installs a hook that rewrites each data input endpoint just
// before a node is added (control-flow frame capture, gradient input
// remapping), and returns the previously installed mapper so callers can
// nest and restore contexts. A mapper returning a zero Endpoint aborts the
// node and records an error. Pass nil to remove the hook.
func (b *B) SetInputMapper(f func(graph.Endpoint) graph.Endpoint) func(graph.Endpoint) graph.Endpoint {
	old := b.st.mapIn
	b.st.mapIn = f
	return old
}

// Node adds a node of the given op type and returns it, or nil after a
// failure. name is scoped and uniquified; when empty it defaults to the op
// type. The installed input mapper (if any) rewrites inputs first, and the
// on-add hook observes the new node. control lists control-dependency
// predecessors.
func (b *B) Node(opType string, inputs []graph.Endpoint, name string, attrs map[string]any, control ...*graph.Node) *graph.Node {
	if b.st.err != nil {
		return nil
	}
	ins := inputs
	if b.st.mapIn != nil && len(inputs) > 0 {
		ins = make([]graph.Endpoint, len(inputs))
		for i, in := range inputs {
			m := b.st.mapIn(in)
			if m.Node == nil {
				// The mapper usually failed through this same builder, so
				// the sticky error is already descriptive; this one only
				// covers mappers that bail without reporting.
				b.Fail(fmt.Errorf("build: input mapper dropped input %d (%s) of %s", i, in, opType))
				return nil
			}
			ins[i] = m
		}
	}
	if name == "" {
		name = opType
	}
	if b.scope != "" {
		name = b.scope + "/" + name
	}
	if len(b.colocate) > 0 {
		// Stamp colocation hints without mutating the caller's attr map;
		// hints already present (e.g. copied from another node) are kept.
		merged := make(map[string]any, len(attrs)+1)
		for k, v := range attrs {
			merged[k] = v
		}
		hints := b.colocate
		if prev, ok := merged[graph.ColocationAttr].([]string); ok {
			hints = append(append([]string(nil), prev...), hints...)
		}
		merged[graph.ColocationAttr] = hints
		attrs = merged
	}
	n, err := b.st.g.AddNode(opType, ins, graph.NodeArgs{
		Name: name, Attrs: attrs, Device: b.dev.String(), Control: control,
	})
	if err != nil {
		b.Fail(err)
		return nil
	}
	if b.st.onAdd != nil {
		b.st.onAdd(n)
	}
	return n
}

// Op adds a node and returns its first output — the common case for
// single-output operations. It returns a zero Endpoint after a failure.
func (b *B) Op(opType string, inputs []graph.Endpoint, attrs map[string]any) graph.Endpoint {
	n := b.Node(opType, inputs, "", attrs)
	if n == nil {
		return graph.Endpoint{}
	}
	if n.NumOutputs() == 0 {
		b.Fail(fmt.Errorf("build: op %s has no outputs; use Node", opType))
		return graph.Endpoint{}
	}
	return n.Out(0)
}

// Op1 adds a unary node and returns its first output.
func (b *B) Op1(opType string, x graph.Endpoint) graph.Endpoint {
	return b.Op(opType, []graph.Endpoint{x}, nil)
}

// Op2 adds a binary node and returns its first output.
func (b *B) Op2(opType string, x, y graph.Endpoint) graph.Endpoint {
	return b.Op(opType, []graph.Endpoint{x, y}, nil)
}

// --- constants ------------------------------------------------------------

// Const embeds t as a constant node and returns its output.
func (b *B) Const(t *tensor.Tensor) graph.Endpoint {
	if t == nil {
		b.Fail(fmt.Errorf("build: Const given a nil tensor"))
		return graph.Endpoint{}
	}
	return b.Op("Const", nil, map[string]any{"value": t, "dtype": t.DType()})
}

// Scalar embeds a rank-0 constant of the given numeric dtype.
func (b *B) Scalar(dt tensor.DType, v float64) graph.Endpoint {
	if !dt.IsNumeric() {
		b.Fail(fmt.Errorf("build: Scalar needs a numeric dtype, got %v", dt))
		return graph.Endpoint{}
	}
	return b.Const(tensor.ScalarOf(dt, v))
}

// Value embeds an arbitrary Go value as a constant: a *tensor.Tensor is used
// directly; scalars (bool, int, int32, int64, float32, float64, string),
// flat slices of those, and [][]float32 matrices become rank-0/1/2 tensors.
func (b *B) Value(v any) graph.Endpoint {
	t, err := ToTensor(v)
	if err != nil {
		b.Fail(err)
		return graph.Endpoint{}
	}
	return b.Const(t)
}

// ToTensor converts a Go value to a tensor, accepting everything Value does.
// It is the single conversion point shared with the tf client library.
func ToTensor(v any) (*tensor.Tensor, error) {
	switch x := v.(type) {
	case *tensor.Tensor:
		return x, nil
	case bool:
		return tensor.ScalarBool(x), nil
	case int:
		return tensor.ScalarInt(int32(x)), nil
	case int32:
		return tensor.ScalarInt(x), nil
	case int64:
		return tensor.ScalarOf(tensor.Int64, float64(x)), nil
	case float32:
		return tensor.Scalar(x), nil
	case float64:
		return tensor.ScalarOf(tensor.Float64, x), nil
	case string:
		return tensor.ScalarString(x), nil
	case []bool:
		return tensor.FromBools(tensor.Shape{len(x)}, x), nil
	case []int32:
		return tensor.FromInt32s(tensor.Shape{len(x)}, x), nil
	case []int64:
		return tensor.FromInt64s(tensor.Shape{len(x)}, x), nil
	case []float32:
		return tensor.FromFloat32s(tensor.Shape{len(x)}, x), nil
	case []float64:
		return tensor.FromFloat64s(tensor.Shape{len(x)}, x), nil
	case []string:
		return tensor.FromStrings(tensor.Shape{len(x)}, x), nil
	case [][]float32:
		rows := len(x)
		if rows == 0 {
			return tensor.FromFloat32s(tensor.Shape{0, 0}, nil), nil
		}
		cols := len(x[0])
		flat := make([]float32, 0, rows*cols)
		for _, row := range x {
			if len(row) != cols {
				return nil, fmt.Errorf("build: ragged [][]float32 constant")
			}
			flat = append(flat, row...)
		}
		return tensor.FromFloat32s(tensor.Shape{rows, cols}, flat), nil
	default:
		return nil, fmt.Errorf("build: cannot convert %T to a tensor", v)
	}
}

// ZerosLike returns a tensor of zeros with x's dtype and runtime shape.
func (b *B) ZerosLike(x graph.Endpoint) graph.Endpoint { return b.Op1("ZerosLike", x) }

// OnesLike returns a tensor of ones with x's dtype and runtime shape.
func (b *B) OnesLike(x graph.Endpoint) graph.Endpoint { return b.Op1("OnesLike", x) }

// --- math -----------------------------------------------------------------

// Add returns x + y with broadcasting.
func (b *B) Add(x, y graph.Endpoint) graph.Endpoint { return b.Op2("Add", x, y) }

// Sub returns x - y with broadcasting.
func (b *B) Sub(x, y graph.Endpoint) graph.Endpoint { return b.Op2("Sub", x, y) }

// Mul returns x * y with broadcasting.
func (b *B) Mul(x, y graph.Endpoint) graph.Endpoint { return b.Op2("Mul", x, y) }

// Div returns x / y with broadcasting.
func (b *B) Div(x, y graph.Endpoint) graph.Endpoint { return b.Op2("Div", x, y) }

// Neg returns -x.
func (b *B) Neg(x graph.Endpoint) graph.Endpoint { return b.Op1("Neg", x) }

// AddN sums all inputs element-wise. A single input is returned unchanged
// (no node is added); an empty list is an error.
func (b *B) AddN(xs []graph.Endpoint) graph.Endpoint {
	switch len(xs) {
	case 0:
		b.Fail(fmt.Errorf("build: AddN needs at least one input"))
		return graph.Endpoint{}
	case 1:
		return xs[0]
	}
	return b.Op("AddN", xs, nil)
}

// MatMul multiplies rank-2 tensors, optionally transposing either operand.
func (b *B) MatMul(x, y graph.Endpoint, transposeX, transposeY bool) graph.Endpoint {
	return b.Op("MatMul", []graph.Endpoint{x, y},
		map[string]any{"transpose_a": transposeX, "transpose_b": transposeY})
}

// Sum reduces x by summation over axes (nil = all axes), keeping reduced
// dimensions as size 1 when keepDims is set.
func (b *B) Sum(x graph.Endpoint, axes []int, keepDims bool) graph.Endpoint {
	return b.Op("Sum", []graph.Endpoint{x}, reduceAttrs(axes, keepDims))
}

// Mean reduces x by averaging over axes (nil = all axes).
func (b *B) Mean(x graph.Endpoint, axes []int, keepDims bool) graph.Endpoint {
	return b.Op("Mean", []graph.Endpoint{x}, reduceAttrs(axes, keepDims))
}

func reduceAttrs(axes []int, keepDims bool) map[string]any {
	attrs := map[string]any{"keep_dims": keepDims}
	if axes != nil {
		attrs["reduction_indices"] = axes
	}
	return attrs
}

// --- array ----------------------------------------------------------------

// Shape returns x's runtime shape as an int32 vector.
func (b *B) Shape(x graph.Endpoint) graph.Endpoint { return b.Op1("Shape", x) }

// Transpose permutes x's dimensions by perm; a nil perm reverses them.
func (b *B) Transpose(x graph.Endpoint, perm []int) graph.Endpoint {
	var attrs map[string]any
	if perm != nil {
		attrs = map[string]any{"perm": perm}
	}
	return b.Op("Transpose", []graph.Endpoint{x}, attrs)
}

// ReshapeTo reshapes x to a static shape; one dimension may be -1 and is
// inferred (at build time when x's shape is fully known, else at run time).
func (b *B) ReshapeTo(x graph.Endpoint, shape tensor.Shape) graph.Endpoint {
	if b.st.err != nil {
		return graph.Endpoint{}
	}
	hint := shape.Clone()
	if xs := x.Shape(); xs.IsFullyDefined() {
		resolved, err := tensor.ResolveReshape(xs.NumElements(), shape)
		if err != nil {
			b.Fail(fmt.Errorf("build: reshape %s to %v: %w", x, shape, err))
			return graph.Endpoint{}
		}
		hint = resolved
	}
	dims := make([]int32, len(shape))
	for i, d := range shape {
		dims[i] = int32(d)
	}
	sv := b.Const(tensor.FromInt32s(tensor.Shape{len(dims)}, dims))
	return b.Op("Reshape", []graph.Endpoint{x, sv}, map[string]any{"shape_hint": hint})
}

// ReshapeLike reshapes x to the runtime shape of ref; the static inference
// uses ref's (possibly partial) inferred shape.
func (b *B) ReshapeLike(x, ref graph.Endpoint) graph.Endpoint {
	if b.st.err != nil {
		return graph.Endpoint{}
	}
	return b.Op("Reshape", []graph.Endpoint{x, b.Shape(ref)},
		map[string]any{"shape_hint": ref.Shape().Clone()})
}

// Concat joins xs along axis.
func (b *B) Concat(xs []graph.Endpoint, axis int) graph.Endpoint {
	return b.Op("Concat", xs, map[string]any{"axis": axis})
}

// Gather reads rows of params selected by integer indices — the sparse read
// of the embedding layer (§4.2). params may be a dense tensor or a variable
// reference (the read is then colocated with the shard).
func (b *B) Gather(params, indices graph.Endpoint) graph.Endpoint {
	return b.Op2("Gather", params, indices)
}

// Lookup is Gather under its embedding-layer name: row i of the result is
// params[indices[i]].
func (b *B) Lookup(params, indices graph.Endpoint) graph.Endpoint {
	return b.Gather(params, indices)
}

// Cast converts x to the given dtype.
func (b *B) Cast(x graph.Endpoint, dt tensor.DType) graph.Endpoint {
	return b.Op("Cast", []graph.Endpoint{x}, map[string]any{"DstT": dt})
}

// --- state and control ----------------------------------------------------

// Variable declares a mutable tensor (§3.1) with the given name, dtype and
// static shape, returning its node (output 0 is the reference edge). The
// builder tracks every variable it declares; see Vars.
func (b *B) Variable(name string, dt tensor.DType, shape tensor.Shape) *graph.Node {
	n := b.Node("Variable", nil, name, map[string]any{"dtype": dt, "shape": shape.Clone()})
	if n != nil {
		b.st.vars = append(b.st.vars, n)
	}
	return n
}

// Vars returns the variables declared through this builder (and all scoped
// views of it), in declaration order.
func (b *B) Vars() []*graph.Node {
	return append([]*graph.Node(nil), b.st.vars...)
}

// Read returns the current value of a variable reference as a dense tensor.
func (b *B) Read(ref graph.Endpoint) graph.Endpoint { return b.Op1("Read", ref) }

// AssignSub returns an op node subtracting value from the variable behind
// ref — the gradient-descent write (§4.1).
func (b *B) AssignSub(ref, value graph.Endpoint) *graph.Node {
	return b.Node("AssignSub", []graph.Endpoint{ref, value}, "", nil)
}

// Group returns a NoOp that completes only after every dep has run — the
// standard way to bundle update operations into one target.
func (b *B) Group(name string, deps ...*graph.Node) *graph.Node {
	return b.Node("NoOp", nil, name, nil, deps...)
}
