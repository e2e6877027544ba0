// Package optim holds the update rules a parameter-server shard can apply
// next to its variables — SGD, Momentum, Adagrad, RMSProp, Adadelta, Adam,
// dense and sparse — written once, as graph construction over internal/build
// (§4.1: optimizers are user-level graph code). tf/train's optimizers emit
// these ops into the client graph; a shard compiles the same ops against its
// resident variables (internal/distributed/psopt.go), so the two apply sites
// cannot disagree.
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
	Algo         string // "sgd", "momentum", "adagrad", "rmsprop", "adadelta", "adam"
	LearningRate float64
	Decay        float64 // momentum coefficient; rmsprop's mean-square decay
	InitialAccum float64 // adagrad accumulator init (<= 0 means 0.1)
	Beta1, Beta2 float64 // adam moment decays (0 means 0.9, 0.999)
	Rho          float64 // adadelta accumulator decay
	Epsilon      float64 // rmsprop, adam (<= 0 means 1e-8), adadelta (<= 0 means 1e-6)
}

// Validate checks the rule is one Apply knows how to build.
func (r Rule) Validate() error {
	switch r.Algo {
	case "sgd", "momentum", "adagrad", "rmsprop", "adadelta", "adam":
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
// ("<var>/<slot>"): its resource name and the Assign that initializes it.
type Slot struct {
	Name string
	Init *graph.Node
}

// Apply emits r's update of v from g through b and returns the op that
// completes it, plus the slots it declared. Under sgd, momentum and adagrad
// a sparse gradient updates only the rows it names; untouched rows keep
// parameters and slot state. The decayed-average rules (rmsprop, adadelta,
// adam) move every row every step, so they sum a sparse gradient into dense
// rows first — here, next to the variable, not on the wire. The caller has
// checked r with Validate.
func Apply(b *build.B, r Rule, v Var, g Grad) (*graph.Node, []Slot) {
	dt, shape := v.Ref.DType(), v.Ref.Shape()
	scalar := func(x float64) graph.Endpoint { return b.Scalar(dt, x) }
	orDefault := func(x, def float64) float64 {
		if x <= 0 {
			return def
		}
		return x
	}
	sparse := g.Indices.Node != nil
	scatter := func(op string, to Var, rows graph.Endpoint) *graph.Node {
		return to.B.Node(op, []graph.Endpoint{to.Ref, g.Indices, rows}, "", nil)
	}
	var slots []Slot
	slot := func(name string, shape tensor.Shape, fill float64) Var {
		sv, s := newSlot(b, v, name, shape, fill)
		slots = append(slots, s)
		return sv
	}
	read := func(s Var) graph.Endpoint { return s.B.Read(s.Ref) }
	// decayed is acc ← ρ·acc + (1−ρ)·x from acc's value cur, returning the
	// new value once stored.
	decayed := func(acc Var, cur graph.Endpoint, rho float64, x graph.Endpoint) graph.Endpoint {
		next := b.Add(b.Mul(cur, scalar(rho)), b.Mul(x, scalar(1-rho)))
		return after(b, next, acc.B.Node("Assign", []graph.Endpoint{acc.Ref, next}, "", nil))
	}
	// densified is the gradient as dense rows: repeated indices are summed.
	densified := func() graph.Endpoint {
		if !sparse {
			return g.Dense
		}
		return b.Op("UnsortedSegmentSum", []graph.Endpoint{g.Values, g.Indices},
			map[string]any{"num_segments": shape[0]})
	}
	switch r.Algo {
	case "momentum":
		// vel ← μ·vel + ∂L/∂W;  W ← W − α·vel
		vel := slot(r.Algo, shape, 0)
		mu, rate := scalar(r.Decay), scalar(r.LearningRate)
		if sparse {
			// Repeated indices within one gradient see the same pre-update
			// velocity rows.
			gathered := vel.B.Gather(vel.Ref, g.Indices)
			newVel := b.Add(b.Mul(gathered, mu), g.Values)
			setVel := scatter("ScatterAdd", vel, b.Sub(newVel, gathered))
			return scatter("ScatterSub", v, b.Mul(after(b, newVel, setVel), rate)), slots
		}
		// One fused op, bit for bit the Mul/Add/Assign/Mul/AssignSub chain.
		return v.B.Node("ApplyMomentum", []graph.Endpoint{v.Ref, vel.Ref, rate, g.Dense, mu}, "", nil), slots
	case "adagrad":
		acc := slot(r.Algo, shape, orDefault(r.InitialAccum, 0.1))
		rate := scalar(r.LearningRate)
		if sparse {
			// The rows are read through ScatterAdd's reference output, so
			// the read is ordered after the accumulation.
			accUp := scatter("ScatterAdd", acc, b.Op1("Square", g.Values))
			accRows := acc.B.Gather(accUp.Out(0), g.Indices)
			step := b.Div(b.Mul(g.Values, rate), b.Op1("Sqrt", accRows))
			return scatter("ScatterSub", v, step), slots
		}
		newAcc := b.Add(read(acc), b.Op1("Square", g.Dense))
		setAcc := acc.B.Node("Assign", []graph.Endpoint{acc.Ref, newAcc}, "", nil)
		step := b.Div(b.Mul(g.Dense, rate), b.Op1("Sqrt", after(b, newAcc, setAcc)))
		return v.B.AssignSub(v.Ref, step), slots
	case "rmsprop":
		// ms ← ρ·ms + (1−ρ)·g²;  W ← W − α·g/√(ms+ε)
		dense := densified()
		ms := slot("rms", shape, 0)
		newMS := decayed(ms, read(ms), r.Decay, b.Op1("Square", dense))
		denom := b.Op1("Sqrt", b.Add(newMS, scalar(orDefault(r.Epsilon, 1e-8))))
		return v.B.AssignSub(v.Ref, b.Div(b.Mul(dense, scalar(r.LearningRate)), denom)), slots
	case "adadelta":
		// E[g²] ← ρ·E[g²] + (1−ρ)·g²;  Δ = g·√(E[Δ²]+ε)/√(E[g²]+ε);
		// E[Δ²] ← ρ·E[Δ²] + (1−ρ)·Δ²;  W ← W − α·Δ
		dense := densified()
		eps := scalar(orDefault(r.Epsilon, 1e-6))
		rms := func(x graph.Endpoint) graph.Endpoint { return b.Op1("Sqrt", b.Add(x, eps)) }
		accG, accX := slot("adadelta_g", shape, 0), slot("adadelta_x", shape, 0)
		readX := read(accX)
		newAccG := decayed(accG, read(accG), r.Rho, b.Op1("Square", dense))
		delta := b.Div(b.Mul(rms(readX), dense), rms(newAccG))
		stored := decayed(accX, readX, r.Rho, b.Op1("Square", delta))
		// The step waits for E[Δ²] to be stored, so the op returned completes
		// the whole update.
		step := b.Mul(after(b, delta, stored.Node), scalar(orDefault(r.LearningRate, 1)))
		return v.B.AssignSub(v.Ref, step), slots
	case "adam":
		// t ← t+1;  m ← β₁·m + (1−β₁)·g;  v ← β₂·v + (1−β₂)·g²;
		// W ← W − α·(m/(1−β₁ᵗ))/(√(v/(1−β₂ᵗ))+ε)
		dense := densified()
		beta1, beta2 := orDefault(r.Beta1, 0.9), orDefault(r.Beta2, 0.999)
		m, vv := slot("adam_m", shape, 0), slot("adam_v", shape, 0)
		t := slot("adam_t", tensor.ScalarShape(), 0)
		tNow := t.B.Op("AssignAdd", []graph.Endpoint{t.Ref, scalar(1)}, nil)
		corr := func(beta float64) graph.Endpoint {
			return b.Sub(scalar(1), b.Op2("Pow", scalar(beta), tNow))
		}
		mHat := b.Div(decayed(m, read(m), beta1, dense), corr(beta1))
		vHat := b.Div(decayed(vv, read(vv), beta2, b.Op1("Square", dense)), corr(beta2))
		denom := b.Add(b.Op1("Sqrt", vHat), scalar(orDefault(r.Epsilon, 1e-8)))
		return v.B.AssignSub(v.Ref, b.Div(b.Mul(mHat, scalar(r.LearningRate)), denom)), slots
	default: // "sgd": W ← W − α·∂L/∂W, a single specialized write
		if sparse {
			return scatter("ScatterSub", v, b.Mul(g.Values, scalar(r.LearningRate))), nil
		}
		return v.B.AssignSub(v.Ref, b.Mul(g.Dense, scalar(r.LearningRate))), nil
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

// newSlot declares the state variable "<v>/<slot>" of the given shape,
// initialized by a Fill (no shape-sized constant stays in the graph). The
// slot is colocated with v — the colocation must win over any device scope b
// carries (e.g. an apply graph scoped to one PS task), so the scope is
// cleared first — which keeps optimizer state on the task that owns the
// parameter (§3.3, §4.1).
func newSlot(b *build.B, v Var, slot string, shape tensor.Shape, fill float64) (Var, Slot) {
	sb := b.WithDevice("").ColocateWith(v.Ref.Node)
	name := v.Name + "/" + slot
	dims := make([]int32, len(shape))
	for i, d := range shape {
		dims[i] = int32(d)
	}
	init := sb.Op2("Fill", sb.Const(tensor.FromInt32s(tensor.Shape{len(dims)}, dims)), sb.Scalar(v.Ref.DType(), fill))
	node := sb.Variable(name, v.Ref.DType(), shape)
	if node == nil {
		return Var{B: sb}, Slot{Name: name}
	}
	assign := sb.Node("Assign", []graph.Endpoint{node.Out(0), init}, name+"/init", nil)
	return Var{Name: name, Ref: node.Out(0), B: sb}, Slot{Name: node.Name(), Init: assign}
}
