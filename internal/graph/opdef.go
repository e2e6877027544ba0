// Package graph implements the dataflow graph representation at the heart of
// the system (paper §3): vertices are operations, edges carry tensors, and a
// small number of stateful operations (variables, queues) own mutable state
// that is shared between concurrent executions of the graph.
//
// The package also hosts the op registry: every operation type is described
// by an OpDef that declares its arity, statefulness, attribute schema, and a
// shape-inference function. Kernels (device-specific implementations) are
// registered separately in internal/ops, mirroring the paper's split between
// graph-level metadata and per-device kernels (§3.3, §5).
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/tensor"
)

// IOSpec describes one input or output of a node: its element type, its
// (possibly partially known) shape, and whether it is a reference edge.
// Reference edges carry handles to mutable state — the output of a Variable
// or queue op (§3.1) — rather than tensor values.
type IOSpec struct {
	DType tensor.DType
	Shape tensor.Shape
	IsRef bool
}

// InferFunc computes the output specs of a node from its input specs, and
// validates attribute/arity constraints while doing so.
type InferFunc func(n *Node, in []IOSpec) ([]IOSpec, error)

// OpDef declares the compile-time contract of an operation type (§3.1):
// "an operation has a named type and may have zero or more compile-time
// attributes that determine its behavior".
type OpDef struct {
	// Type is the operation name, e.g. "MatMul".
	Type string
	// MinInputs and MaxInputs bound the data-input arity. MaxInputs of -1
	// means variadic (bounded only by the attribute that the Infer
	// function checks, as with AddN's N attribute).
	MinInputs, MaxInputs int
	// Stateful marks operations that own or mutate state; stateful ops
	// are never deduplicated by CSE, never constant-folded, and are
	// colocated with their state by the placer.
	Stateful bool
	// Infer validates the node and computes output specs.
	Infer InferFunc
}

var (
	opRegistryMu sync.RWMutex
	opRegistry   = make(map[string]*OpDef)
)

// RegisterOp installs an op definition. It panics on duplicates: ops are
// registered from init-time code, and a duplicate is a programming error.
func RegisterOp(def *OpDef) {
	opRegistryMu.Lock()
	defer opRegistryMu.Unlock()
	if def.Type == "" || def.Infer == nil {
		panic("graph: RegisterOp needs a type name and an Infer function")
	}
	if _, dup := opRegistry[def.Type]; dup {
		panic(fmt.Sprintf("graph: op %q registered twice", def.Type))
	}
	opRegistry[def.Type] = def
}

// LookupOp returns the definition for an op type.
func LookupOp(opType string) (*OpDef, error) {
	opRegistryMu.RLock()
	defer opRegistryMu.RUnlock()
	def, ok := opRegistry[opType]
	if !ok {
		return nil, fmt.Errorf("graph: unknown op type %q", opType)
	}
	return def, nil
}

// RegisteredOps returns the sorted list of registered op type names. The
// paper notes the runtime ships "over 200 standard operations" (§5); this
// lets tests assert on the breadth of our registry.
func RegisteredOps() []string {
	opRegistryMu.RLock()
	defer opRegistryMu.RUnlock()
	return slices.Sorted(maps.Keys(opRegistry))
}
