package distributed

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// This file is the worker-task half of synchronous replication (§4.4): a
// replica's graph ends in one PushGradients node, which runs on the
// replica's worker task beside the backward pass and sends each gradient
// straight to the PS shard owning its variable. A gradient thus crosses
// the network once, from the task that produced it to the task that
// applies it — the client's step carries only the loss and the applied
// round back (OSDI §3.3: tensors move between tasks, never through the
// client).

// PushSpec is what a replica's PushGradients node carries as attributes.
// The node's inputs are the round (an int64 scalar) and then, per variable
// in Vars order, its gradient: one dense tensor, or an (indices, values)
// pair when Sparse says so.
type PushSpec struct {
	Vars     []string // variable names
	Tasks    []string // the PS task owning each variable
	Sparse   []bool   // whose gradient is an (indices, values) pair
	NumFresh int      // m of n: contributions a round aggregates
	Rule     UpdateRule
	// StepTask's shard SETs StepName to round+1 after applying; it gets a
	// push even when no variable lives there.
	StepTask, StepName string
	// Retries bounds the re-sends of one shard's push after a transport
	// failure; the push is idempotent per (origin, round).
	Retries int
}

// Attrs returns the spec as node attributes.
func (s PushSpec) Attrs() map[string]any {
	sparse := make([]int, len(s.Sparse))
	for i, sp := range s.Sparse {
		if sp {
			sparse[i] = 1
		}
	}
	return map[string]any{
		"vars": s.Vars, "tasks": s.Tasks, "sparse": sparse, "num_fresh": s.NumFresh,
		"algo": s.Rule.Algo, "learning_rate": s.Rule.LearningRate, "decay": s.Rule.Decay,
		"initial_accum": s.Rule.InitialAccum, "beta1": s.Rule.Beta1, "beta2": s.Rule.Beta2,
		"rho": s.Rule.Rho, "epsilon": s.Rule.Epsilon,
		"step_task": s.StepTask, "step_name": s.StepName, "retries": s.Retries,
	}
}

// PushSpecOf reads a PushGradients node's spec back from its attributes.
func PushSpecOf(n *graph.Node) (PushSpec, error) {
	vars, _ := n.Attr("vars").([]string)
	tasks, _ := n.Attr("tasks").([]string)
	sparse, _ := n.AttrInts("sparse")
	s := PushSpec{
		Vars: vars, Tasks: tasks, Sparse: make([]bool, len(sparse)),
		NumFresh: n.AttrInt("num_fresh", 0),
		Rule: UpdateRule{
			Algo: n.AttrString("algo", ""), LearningRate: n.AttrFloat("learning_rate", 0),
			Decay: n.AttrFloat("decay", 0), InitialAccum: n.AttrFloat("initial_accum", 0),
			Beta1: n.AttrFloat("beta1", 0), Beta2: n.AttrFloat("beta2", 0),
			Rho: n.AttrFloat("rho", 0), Epsilon: n.AttrFloat("epsilon", 0),
		},
		StepTask: n.AttrString("step_task", ""), StepName: n.AttrString("step_name", ""),
		Retries: n.AttrInt("retries", 0),
	}
	for i, sp := range sparse {
		s.Sparse[i] = sp != 0
	}
	if len(vars) == 0 || len(tasks) != len(vars) || len(sparse) != len(vars) {
		return s, fmt.Errorf("PushGradients %s names %d variables, %d tasks and %d sparse flags",
			n.Name(), len(vars), len(tasks), len(sparse))
	}
	if s.NumFresh <= 0 || s.StepTask == "" || s.Retries < 0 {
		return s, fmt.Errorf("PushGradients %s needs num_fresh > 0, a step_task and retries >= 0", n.Name())
	}
	return s, s.Rule.Validate()
}

// numInputs is how many data inputs the node takes: the round, then every
// gradient tensor.
func (s PushSpec) numInputs() int {
	n := 1 + len(s.Vars)
	for _, sp := range s.Sparse {
		if sp {
			n++
		}
	}
	return n
}

func init() {
	graph.RegisterOp(&graph.OpDef{
		Type: "PushGradients", MinInputs: 2, MaxInputs: -1, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			s, err := PushSpecOf(n)
			if err != nil {
				return nil, err
			}
			if len(in) != s.numInputs() {
				return nil, fmt.Errorf("PushGradients %s takes %d inputs, got %d", n.Name(), s.numInputs(), len(in))
			}
			if in[0].DType != tensor.Int64 || in[0].Shape.Rank() != 0 {
				return nil, fmt.Errorf("PushGradients %s: the round must be an int64 scalar, got %v%v", n.Name(), in[0].DType, in[0].Shape)
			}
			return []graph.IOSpec{{DType: tensor.Int64, Shape: tensor.ScalarShape()}}, nil
		},
	})
	ops.RegisterBlockingKernel("PushGradients", "CPU", pushKernel)
	// Nothing holds a gradient once the kernel returns: every transport has
	// encoded the request when the call returns, and the shard keeps only
	// what it decoded. The executor then recycles each gradient for the
	// next step's backward pass.
	ops.MarkNoRetain("PushGradients")
}

// pushKernel sends one replica's round contribution to every owning shard
// in parallel, through the worker task's own resolver, and outputs the
// highest round the shards report applied. Each shard's push blocks until
// that shard has applied the round (or acknowledges it as already applied);
// a transport failure re-sends the same request. The kernel returns only
// once every send has.
func pushKernel(ctx *ops.OpContext) error {
	tr, ok := ctx.Rendezvous.(*taskRendezvous)
	if !ok {
		return errors.New("runs only on a task of a distributed cluster")
	}
	s, err := PushSpecOf(ctx.Node)
	if err != nil {
		return err
	}
	ins := make([]*tensor.Tensor, len(ctx.Inputs))
	for i := range ins {
		if ins[i], err = ctx.Input(i); err != nil {
			return err
		}
	}
	if ins[0].DType() != tensor.Int64 || ins[0].NumElements() != 1 {
		return fmt.Errorf("the round must be one int64, got %v%v", ins[0].DType(), ins[0].Shape())
	}
	w := tr.w
	var tasks []string
	reqs := map[string]*PushGradientsReq{}
	reqFor := func(task string) *PushGradientsReq {
		req := reqs[task]
		if req == nil {
			req = &PushGradientsReq{Origin: w.task, Round: ins[0].Int64s()[0], NumFresh: s.NumFresh, Rule: s.Rule}
			reqs[task] = req
			tasks = append(tasks, task)
		}
		return req
	}
	pos := 1
	for i, name := range s.Vars {
		gp := GradientPush{Name: name, Dense: ins[pos]}
		if s.Sparse[i] {
			gp = GradientPush{Name: name, Indices: ins[pos], Values: ins[pos+1]}
			pos++
		}
		pos++
		req := reqFor(s.Tasks[i])
		req.Grads = append(req.Grads, gp)
	}
	reqFor(s.StepTask).StepName = s.StepName

	abort := ctx.Abort
	applied := make([]int64, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.resolver.OnTask(task, s.Retries, func(t Transport) error {
				resp, err := t.PushGradients(reqs[task], abort)
				if err == nil {
					applied[i] = resp.Round
				}
				return err
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("pushing gradients to %s: %w", tasks[i], err)
		}
	}
	ctx.SetOutput(0, tensor.FromInt64s(tensor.ScalarShape(), []int64{slices.Max(applied)}))
	return nil
}
