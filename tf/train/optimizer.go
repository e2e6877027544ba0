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
// internal/optim's serializable rules — every optimizer in this package.
// Their ApplyGradients emits the rule's ops into the client graph; in sync
// replicated training the same rule is shipped to the parameter-server
// shards, which build the same ops next to their variables (the
// parameter-server design of the preliminary whitepaper; §4.4 moves the sync
// barrier to the shard with it).
type UpdateRuler interface {
	// UpdateRule returns the serializable spec.
	UpdateRule() distributed.UpdateRule
}

// applyRule is every optimizer's ApplyGradients: one optim.Apply per
// variable, grouped as "train/<algo>". The rule's slot variables shadow
// their parameter ("<var>/<slot>", e.g. the Momentum velocity) and are built
// from Variables and primitive ops like everything else — the paper's
// example of optimizers needing no privileged runtime support (§4.1).
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
	Epsilon      float64 // typically 1e-8, the default when <= 0
}

// UpdateRule implements UpdateRuler.
func (o *RMSProp) UpdateRule() distributed.UpdateRule {
	return distributed.UpdateRule{Algo: "rmsprop", LearningRate: o.LearningRate, Decay: o.Decay, Epsilon: o.Epsilon}
}

// Minimize implements Optimizer.
func (o *RMSProp) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *RMSProp) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// Adadelta is RMSProp with a second accumulator of squared updates,
// removing the global learning rate's units.
type Adadelta struct {
	LearningRate float64 // typically 1.0, the default when <= 0
	Rho          float64 // typically 0.95
	Epsilon      float64 // typically 1e-6, the default when <= 0
}

// UpdateRule implements UpdateRuler.
func (o *Adadelta) UpdateRule() distributed.UpdateRule {
	return distributed.UpdateRule{Algo: "adadelta", LearningRate: o.LearningRate, Rho: o.Rho, Epsilon: o.Epsilon}
}

// Minimize implements Optimizer.
func (o *Adadelta) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adadelta) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
}

// Adam combines first- and second-moment estimates with bias correction;
// each variable counts its own timestep in the scalar slot "<var>/adam_t".
type Adam struct {
	LearningRate float64 // typically 1e-3
	Beta1        float64 // typically 0.9, the default when <= 0
	Beta2        float64 // typically 0.999, the default when <= 0
	Epsilon      float64 // typically 1e-8, the default when <= 0
}

// UpdateRule implements UpdateRuler.
func (o *Adam) UpdateRule() distributed.UpdateRule {
	return distributed.UpdateRule{Algo: "adam", LearningRate: o.LearningRate,
		Beta1: o.Beta1, Beta2: o.Beta2, Epsilon: o.Epsilon}
}

// Minimize implements Optimizer.
func (o *Adam) Minimize(g *tf.Graph, loss tf.Output, vars []*tf.Variable) (*tf.Operation, error) {
	return minimize(o, g, loss, vars)
}

// ApplyGradients implements Optimizer.
func (o *Adam) ApplyGradients(g *tf.Graph, grads []tf.Gradient, vars []*tf.Variable) (*tf.Operation, error) {
	return applyRule(g, o.UpdateRule(), grads, vars)
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
	clipT := tf.NewTensor(norm.DType(), tf.Shape{})
	clipT.SetFloat(0, clip)
	clipC := g.Const(clipT)
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
