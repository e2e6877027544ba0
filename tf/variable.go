package tf

import (
	"repro/internal/graph"
)

// Variable is a handle to a mutable tensor that persists across steps
// (§3.1): the graph node owns a reference to the device-resident buffer;
// Value() reads it; the assign methods mutate it. The initializer is an
// ordinary Assign op, grouped by Graph.InitOp.
type Variable struct {
	g    *Graph
	node *graph.Node
	read Output
	init *Operation
	name string
}

// NewVariable declares a variable initialized from the given output (for
// example a TruncatedNormal initializer or a Const).
func (gr *Graph) NewVariable(name string, initial Output) *Variable {
	if !initial.Valid() {
		return &Variable{g: gr, name: name}
	}
	spec := initial.ep.Spec()
	node := gr.b.Variable(name, spec.DType, spec.Shape)
	if node == nil {
		return &Variable{g: gr, name: name}
	}
	assign := gr.b.Node("Assign", []graph.Endpoint{node.Out(0), initial.ep}, name+"/init", nil)
	readEp := gr.b.Read(node.Out(0))
	v := &Variable{
		g:    gr,
		node: node,
		read: gr.wrap(readEp),
		init: &Operation{n: assign, g: gr},
		name: name,
	}
	gr.AddInit(assign)
	return v
}

// NewVariableFromTensor declares a variable initialized from a constant.
func (gr *Graph) NewVariableFromTensor(name string, t *Tensor) *Variable {
	return gr.NewVariable(name, gr.Const(t))
}

// Name returns the variable's name.
func (v *Variable) Name() string { return v.name }

// Value returns the variable's current value as a tensor edge (a cached
// Read op).
func (v *Variable) Value() Output { return v.read }

// Ref returns the reference edge, consumed by state ops (Assign, Scatter*).
func (v *Variable) Ref() Output {
	if v.node == nil {
		return Output{}
	}
	return v.g.wrap(v.node.Out(0))
}

// Graph returns the view the variable was declared through; the variable's
// state ops carry that view's device scope (companion packages).
func (v *Variable) Graph() *Graph { return v.g }

// Node returns the Variable graph node (companion packages).
func (v *Variable) Node() *graph.Node { return v.node }

// Initializer returns the variable's init op.
func (v *Variable) Initializer() *Operation { return v.init }

// DType returns the variable's element type.
func (v *Variable) DType() DType { return v.node.OutSpec(0).DType }

// Shape returns the variable's static shape.
func (v *Variable) Shape() Shape { return v.node.OutSpec(0).Shape }

// Assign returns an op that replaces the variable's value.
func (v *Variable) Assign(value Output) *Operation {
	return v.g.opNode("Assign", "", nil, v.Ref(), value)
}

// AssignAdd returns an op that adds value into the variable — the canonical
// parameter-server write (§2.2, §4.1).
func (v *Variable) AssignAdd(value Output) *Operation {
	return v.g.opNode("AssignAdd", "", nil, v.Ref(), value)
}

// AssignSub returns an op that subtracts value from the variable.
func (v *Variable) AssignSub(value Output) *Operation {
	return v.g.opNode("AssignSub", "", nil, v.Ref(), value)
}

// ScatterAdd returns an op adding update rows at the given indices — the
// sparse write of the embedding layer (§4.2).
func (v *Variable) ScatterAdd(indices, updates Output) *Operation {
	return v.g.opNode("ScatterAdd", "", nil, v.Ref(), indices, updates)
}

// ScatterSub returns an op subtracting update rows at the given indices.
func (v *Variable) ScatterSub(indices, updates Output) *Operation {
	return v.g.opNode("ScatterSub", "", nil, v.Ref(), indices, updates)
}
