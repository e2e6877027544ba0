// Package optim holds the update rules a parameter-server shard can apply
// next to its variables — SGD, Momentum, Adagrad, dense and sparse — written
// once, as graph construction over internal/build (§4.1: optimizers are
// user-level graph code). tf/train's optimizers emit these ops into the
// client graph; a shard compiles the same ops against its resident variables
// (internal/distributed/psopt.go), so the two apply sites cannot disagree.
package optim

import (
	"fmt"

	"repro/internal/build"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Rule is the serializable spec of an update rule; it crosses the wire as
// distributed.UpdateRule.
type Rule struct {
	Algo         string // "sgd", "momentum", "adagrad"
	LearningRate float64
	Decay        float64 // momentum coefficient (momentum only)
	InitialAccum float64 // adagrad accumulator init (<= 0 means 0.1)
}

// Validate checks the rule is one Apply knows how to build.
func (r Rule) Validate() error {
	switch r.Algo {
	case "sgd", "momentum", "adagrad":
		return nil
	}
	return fmt.Errorf("optim: unknown update rule %q", r.Algo)
}

// Var is a variable as the rule graph sees it: its resource name, its
// reference edge, and the builder view its state ops are emitted through
// (the view carries the variable's device scope, §3.3).
type Var struct {
	Name string
	Ref  graph.Endpoint
	B    *build.B
}

// Grad is one variable's gradient: Dense, or a sparse (Indices, Values)
// pair naming the rows it touches (§4.2).
type Grad struct {
	Dense, Indices, Values graph.Endpoint
}

// Slot is a state variable a rule declared next to its parameter
// ("<var>/<algo>"): its resource name and the Assign that initializes it.
type Slot struct {
	Name string
	Init *graph.Node
}

// Apply emits r's update of v from g through b and returns the op that
// completes it, plus the slots it declared. Sparse gradients update only
// the rows they name; untouched rows keep parameters and slot state. The
// caller has checked r with Validate.
func Apply(b *build.B, r Rule, v Var, g Grad) (*graph.Node, []Slot) {
	dt := v.Ref.DType()
	lr := func() graph.Endpoint { return b.Scalar(dt, r.LearningRate) }
	sparse := g.Indices.Node != nil
	scatter := func(op string, to Var, rows graph.Endpoint) *graph.Node {
		return to.B.Node(op, []graph.Endpoint{to.Ref, g.Indices, rows}, "", nil)
	}
	switch r.Algo {
	case "momentum":
		// vel ← μ·vel + ∂L/∂W;  W ← W − α·vel
		vel, read, slot := newSlot(b, v, r.Algo, 0)
		mu := b.Scalar(dt, r.Decay)
		rate := lr()
		if sparse {
			// Repeated indices within one gradient see the same pre-update
			// velocity rows.
			gathered := vel.B.Gather(vel.Ref, g.Indices)
			newVel := b.Add(b.Mul(gathered, mu), g.Values)
			setVel := scatter("ScatterAdd", vel, b.Sub(newVel, gathered))
			return scatter("ScatterSub", v, b.Mul(after(b, newVel, setVel), rate)), []Slot{slot}
		}
		newVel := b.Add(b.Mul(read, mu), g.Dense)
		setVel := vel.B.Node("Assign", []graph.Endpoint{vel.Ref, newVel}, "", nil)
		return v.B.AssignSub(v.Ref, b.Mul(after(b, newVel, setVel), rate)), []Slot{slot}
	case "adagrad":
		fill := r.InitialAccum
		if fill <= 0 {
			fill = 0.1
		}
		acc, read, slot := newSlot(b, v, r.Algo, fill)
		rate := lr()
		if sparse {
			// The rows are read through ScatterAdd's reference output, so
			// the read is ordered after the accumulation.
			accUp := scatter("ScatterAdd", acc, b.Op1("Square", g.Values))
			accRows := acc.B.Gather(accUp.Out(0), g.Indices)
			step := b.Div(b.Mul(g.Values, rate), b.Op1("Sqrt", accRows))
			return scatter("ScatterSub", v, step), []Slot{slot}
		}
		newAcc := b.Add(read, b.Op1("Square", g.Dense))
		setAcc := acc.B.Node("Assign", []graph.Endpoint{acc.Ref, newAcc}, "", nil)
		step := b.Div(b.Mul(g.Dense, rate), b.Op1("Sqrt", after(b, newAcc, setAcc)))
		return v.B.AssignSub(v.Ref, step), []Slot{slot}
	default: // "sgd": W ← W − α·∂L/∂W, a single specialized write
		if sparse {
			return scatter("ScatterSub", v, b.Mul(g.Values, lr())), nil
		}
		return v.B.AssignSub(v.Ref, b.Mul(g.Dense, lr())), nil
	}
}

// after forwards x once dep has run.
func after(b *build.B, x graph.Endpoint, dep *graph.Node) graph.Endpoint {
	n := b.Node("Identity", []graph.Endpoint{x}, "", nil, dep)
	if n == nil {
		return graph.Endpoint{}
	}
	return n.Out(0)
}

// newSlot declares the accumulator variable shadowing v, initialized to a
// constant fill, and returns it with its read edge. The slot is colocated
// with v — the colocation must win over any device scope b carries (e.g. an
// apply graph scoped to one PS task), so the scope is cleared first — which
// keeps optimizer state on the task that owns the parameter (§3.3, §4.1).
func newSlot(b *build.B, v Var, slot string, fill float64) (Var, graph.Endpoint, Slot) {
	sb := b.WithDevice("").ColocateWith(v.Ref.Node)
	name := v.Name + "/" + slot
	init := sb.Const(tensor.Fill(v.Ref.DType(), v.Ref.Shape(), fill))
	node := sb.Variable(name, v.Ref.DType(), v.Ref.Shape())
	if node == nil {
		return Var{B: sb}, graph.Endpoint{}, Slot{Name: name}
	}
	assign := sb.Node("Assign", []graph.Endpoint{node.Out(0), init}, name+"/init", nil)
	return Var{Name: name, Ref: node.Out(0), B: sb}, sb.Read(node.Out(0)), Slot{Name: node.Name(), Init: assign}
}
