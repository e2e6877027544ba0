// Package train implements the training utilities of the paper as
// user-level graph code: optimization algorithms built from Variables and
// primitive operations (§4.1) — the exact capability that required C++
// parameter-server changes in DistBelief — plus checkpointing (§4.3),
// input-pipeline coordination, and the synchronous replication schemes with
// backup workers of §4.4.
package train

import (
	"fmt"

	"repro/internal/distributed"
	"repro/internal/optim"
	"repro/tf"
)

// Optimizer computes parameter updates from gradients. Every implementation
// is pure graph construction: Minimize appends update operations and returns
// the op to run each training step.
type Optimizer interface {
	// Minimize differentiates loss w.r.t. the variables and applies the
	// update rule, returning the grouped training op.
	Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error)
	// ApplyGradients applies the update rule to precomputed gradients
	// (used by data-parallel replication, which aggregates gradients
	// before applying them, §4.4).
	ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error)
}

// UpdateRuler is implemented by optimizers whose update rule is one of
// internal/optim's serializable rules. Their ApplyGradients emits the rule's
// ops into the client graph; in sync replicated training the same rule is
// shipped to the parameter-server shards, which build the same ops next to
// their variables (the parameter-server design of the preliminary
// whitepaper; §4.4 moves the sync barrier to the shard with it). Optimizers
// without a rule — Adam, RMSProp, Adadelta — are applied by the chief.
type UpdateRuler interface {
	// UpdateRule returns the serializable spec.
	UpdateRule() distributed.UpdateRule
}

// applyRule is ApplyGradients for the rule-expressible optimizers: one
// optim.Apply per variable, grouped as "train/<algo>".
func applyRule(g *tf.Graph, rule optim.Rule, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	if len(grads) != len(vars) {
		return nil, fmt.Errorf("train: %d gradients for %d variables", len(grads), len(vars))
	}
	if err := g.Err(); err != nil {
		return nil, err
	}
	var updates []*tf.Operation
	for i, grad := range grads {
		if grad.IsZero() {
			continue
		}
		v := vars[i]
		og := optim.Grad{Dense: grad.Dense.Unwrap()}
		if sp := grad.Sparse; sp != nil {
			og = optim.Grad{Indices: sp.Indices.Unwrap(), Values: sp.Values.Unwrap()}
		}
		update, slots := optim.Apply(g.Builder(), rule,
			optim.Var{Name: v.Name(), Ref: v.Ref().Unwrap(), B: v.Graph().Builder()}, og)
		for _, s := range slots {
			g.AddInit(s.Init)
		}
		if update != nil {
			updates = append(updates, g.WrapOutput(update.Out(0)).Op())
		}
	}
	op := g.Group("train/"+rule.Algo, updates...)
	return op, g.Err()
}

// minimize is the shared Minimize-via-ApplyGradients implementation.
func minimize(o Optimizer, g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	xs := make([]tf.Output, len(vars))
	for i, v := range vars {
		xs[i] = v.Value()
	}
	grads, err := g.Gradients([]tf.Output{loss}, xs)
	if err != nil {
		return nil, err
	}
	return o.ApplyGradients(g, grads, vars)
}

// slotVar creates an accumulator variable shadowing v (e.g. the Momentum
// "velocity"), initialized to a constant fill. The paper uses exactly this
// pattern to show optimizers need no privileged runtime support (§4.1).
// The slot is colocated with v, so in a parameter-server placement the
// optimizer state lives on the same task as the parameters it adapts
// (§3.3, §4.1). The colocation must win over any ambient device scope the
// caller's view carries (e.g. an apply graph scoped to one PS task), so the
// scope is cleared before the hint is attached.
func slotVar(g *tf.Graph, v *tf.Variable, slot string, fill float64) *tf.Variable {
	gc := g.WithDevice("").ColocateWith(v.Ref().Op())
	init := gc.Const(mustFill(v.DType(), v.Shape(), fill))
	return gc.NewVariable(v.Name()+"/"+slot, init)
}

func mustFill(dt tf.DType, shape tf.Shape, fill float64) *tf.Tensor {
	t := tf.NewTensor(dt, shape)
	if fill != 0 {
		for i := 0; i < t.NumElements(); i++ {
			t.SetFloat(i, fill)
		}
	}
	return t
}

// GradientDescent is plain SGD: W ← W − α·∂L/∂W, expressible as a single
// specialized write (§4.1). Sparse gradients apply as ScatterSub updates
// touching only the gathered rows (§4.2).
type GradientDescent struct {
	LearningRate float64
}

// UpdateRule implements UpdateRuler.
func (o *GradientDescent) UpdateRule() distributed.UpdateRule {
	return distributed.UpdateRule{Algo: "sgd", LearningRate: o.LearningRate}
}

// Minimize implements Optimizer.
func (o *GradientDescent) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *GradientDescent) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

func scalarOf(dt tf.DType, v float64) *tf.Tensor {
	t := tf.NewTensor(dt, tf.Shape{})
	t.SetFloat(0, v)
	return t
}

// Momentum implements the momentum method (§4.1's motivating example of an
// optimizer that a plain parameter server cannot express as one write):
//
//	vel ← μ·vel + ∂L/∂W;  W ← W − α·vel
//
// Sparse gradients decay and update only the touched velocity rows (§4.2).
type Momentum struct {
	LearningRate float64
	Decay        float64 // μ, typically 0.9
}

// UpdateRule implements UpdateRuler.
func (o *Momentum) UpdateRule() distributed.UpdateRule {
	return distributed.UpdateRule{Algo: "momentum", LearningRate: o.LearningRate, Decay: o.Decay}
}

// Minimize implements Optimizer.
func (o *Momentum) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Momentum) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// Adagrad adapts per-parameter learning rates by accumulated squared
// gradients. Sparse gradients update only the touched accumulator rows.
type Adagrad struct {
	LearningRate float64
	InitialAccum float64 // typically 0.1, the default when <= 0
}

// UpdateRule implements UpdateRuler.
func (o *Adagrad) UpdateRule() distributed.UpdateRule {
	return distributed.UpdateRule{Algo: "adagrad", LearningRate: o.LearningRate, InitialAccum: o.InitialAccum}
}

// Minimize implements Optimizer.
func (o *Adagrad) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adagrad) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// RMSProp keeps an exponentially decayed mean of squared gradients.
type RMSProp struct {
	LearningRate float64
	Decay        float64 // typically 0.9
	Epsilon      float64 // typically 1e-8
}

// Minimize implements Optimizer.
func (o *RMSProp) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *RMSProp) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	if len(grads) != len(vars) {
		return nil, fmt.Errorf("train: %d gradients for %d variables", len(grads), len(vars))
	}
	eps := o.Epsilon
	if eps <= 0 {
		eps = 1e-8
	}
	var updates []*tf.Operation
	for i, grad := range grads {
		v := vars[i]
		if grad.IsZero() {
			continue
		}
		dense, err := g.DensifyGradient(grad)
		if err != nil {
			return nil, err
		}
		ms := slotVar(g, v, "rms", 0)
		decay := g.Const(scalarOf(v.DType(), o.Decay))
		oneMinus := g.Const(scalarOf(v.DType(), 1-o.Decay))
		newMS := g.Add(g.Mul(ms.Value(), decay), g.Mul(g.Square(dense), oneMinus))
		setMS := ms.Assign(newMS)
		lr := g.Const(scalarOf(v.DType(), o.LearningRate))
		denom := g.Sqrt(g.Add(g.IdentityWithControl(newMS, setMS), g.Const(scalarOf(v.DType(), eps))))
		updates = append(updates, v.AssignSub(g.Div(g.Mul(dense, lr), denom)))
	}
	op := g.Group("train/rmsprop", updates...)
	return op, g.Err()
}

// Adadelta is RMSProp with a second accumulator of squared updates,
// removing the global learning rate's units.
type Adadelta struct {
	LearningRate float64 // typically 1.0
	Rho          float64 // typically 0.95
	Epsilon      float64 // typically 1e-6
}

// Minimize implements Optimizer.
func (o *Adadelta) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adadelta) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	if len(grads) != len(vars) {
		return nil, fmt.Errorf("train: %d gradients for %d variables", len(grads), len(vars))
	}
	eps := o.Epsilon
	if eps <= 0 {
		eps = 1e-6
	}
	lrv := o.LearningRate
	if lrv == 0 {
		lrv = 1
	}
	var updates []*tf.Operation
	for i, grad := range grads {
		v := vars[i]
		if grad.IsZero() {
			continue
		}
		dense, err := g.DensifyGradient(grad)
		if err != nil {
			return nil, err
		}
		accG := slotVar(g, v, "adadelta_g", 0)
		accX := slotVar(g, v, "adadelta_x", 0)
		rho := g.Const(scalarOf(v.DType(), o.Rho))
		oneMinus := g.Const(scalarOf(v.DType(), 1-o.Rho))
		epsC := g.Const(scalarOf(v.DType(), eps))

		newAccG := g.Add(g.Mul(accG.Value(), rho), g.Mul(g.Square(dense), oneMinus))
		setAccG := accG.Assign(newAccG)
		rms := func(x tf.Output) tf.Output { return g.Sqrt(g.Add(x, epsC)) }
		update := g.Div(g.Mul(rms(accX.Value()), dense), rms(g.IdentityWithControl(newAccG, setAccG)))
		newAccX := g.Add(g.Mul(accX.Value(), rho), g.Mul(g.Square(update), oneMinus))
		setAccX := accX.Assign(newAccX)
		lr := g.Const(scalarOf(v.DType(), lrv))
		step := g.Mul(g.IdentityWithControl(update, setAccX), lr)
		updates = append(updates, v.AssignSub(step))
	}
	op := g.Group("train/adadelta", updates...)
	return op, g.Err()
}

// Adam combines first- and second-moment estimates with bias correction.
type Adam struct {
	LearningRate float64 // typically 1e-3
	Beta1        float64 // typically 0.9
	Beta2        float64 // typically 0.999
	Epsilon      float64 // typically 1e-8
}

// Minimize implements Optimizer.
func (o *Adam) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adam) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	if len(grads) != len(vars) {
		return nil, fmt.Errorf("train: %d gradients for %d variables", len(grads), len(vars))
	}
	beta1, beta2 := o.Beta1, o.Beta2
	if beta1 == 0 {
		beta1 = 0.9
	}
	if beta2 == 0 {
		beta2 = 0.999
	}
	eps := o.Epsilon
	if eps <= 0 {
		eps = 1e-8
	}
	// Shared timestep drives the bias correction.
	t := g.NewVariableFromTensor("train/adam_t", scalarOf(tf.Float32, 0))
	tUp := t.AssignAdd(g.Const(float32(1)))
	tNow := g.IdentityWithControl(t.Value(), tUp)
	b1 := g.Const(float32(beta1))
	b2 := g.Const(float32(beta2))
	corr1 := g.Sub(g.Const(float32(1)), g.Pow(b1, tNow))
	corr2 := g.Sub(g.Const(float32(1)), g.Pow(b2, tNow))

	var updates []*tf.Operation
	for i, grad := range grads {
		v := vars[i]
		if grad.IsZero() {
			continue
		}
		dense, err := g.DensifyGradient(grad)
		if err != nil {
			return nil, err
		}
		m := slotVar(g, v, "adam_m", 0)
		vv := slotVar(g, v, "adam_v", 0)
		oneMinusB1 := g.Const(scalarOf(v.DType(), 1-beta1))
		oneMinusB2 := g.Const(scalarOf(v.DType(), 1-beta2))
		newM := g.Add(g.Mul(m.Value(), b1), g.Mul(dense, oneMinusB1))
		newV := g.Add(g.Mul(vv.Value(), b2), g.Mul(g.Square(dense), oneMinusB2))
		setM := m.Assign(newM)
		setV := vv.Assign(newV)
		mHat := g.Div(g.IdentityWithControl(newM, setM), corr1)
		vHat := g.Div(g.IdentityWithControl(newV, setV), corr2)
		lr := g.Const(scalarOf(v.DType(), o.LearningRate))
		step := g.Div(g.Mul(mHat, lr), g.Add(g.Sqrt(vHat), g.Const(scalarOf(v.DType(), eps))))
		updates = append(updates, v.AssignSub(step))
	}
	op := g.Group("train/adam", updates...)
	return op, g.Err()
}

// ClipByGlobalNorm rescales dense gradients so their joint L2 norm is at
// most clip — the gradient-clipping refinement users layered on the
// differentiation library (§4.1).
func ClipByGlobalNorm(g *tf.Graph, grads []tf.Gradient, clip float64) ([]tf.Gradient, error) {
	var sq []tf.Output
	for _, grad := range grads {
		if grad.IsZero() {
			continue
		}
		d, err := g.DensifyGradient(grad)
		if err != nil {
			return nil, err
		}
		sq = append(sq, g.Sum(g.Square(d), nil, false))
	}
	if len(sq) == 0 {
		return grads, nil
	}
	norm := g.Sqrt(g.AddN(sq...))
	clipC := g.Const(scalarOf(norm.DType(), clip))
	scale := g.Div(clipC, g.Maximum(norm, clipC))
	out := make([]tf.Gradient, len(grads))
	for i, grad := range grads {
		if grad.IsZero() {
			out[i] = grad
			continue
		}
		d, err := g.DensifyGradient(grad)
		if err != nil {
			return nil, err
		}
		out[i] = tf.Gradient{Dense: g.Mul(d, scale)}
	}
	return out, g.Err()
}
