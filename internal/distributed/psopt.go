package distributed

import (
	"fmt"
	"sync"

	"repro/internal/build"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// This file is the synchronization barrier of §4.4 and the parameter-server
// side of PS-applied optimization. Workers push raw gradients — dense
// tensors or sparse (indices, values) pairs — tagged with an absolute round
// number; an Aggregator accumulates one round's contributions, hands their
// mean to its apply callback once m fresh contributions arrive (m-of-n
// backup-worker semantics, Figure 4c), and releases every pusher blocked on
// that round. Rounds at or below the last applied round acknowledge
// immediately, which is what makes a push idempotent under retransmits,
// duplicates and lost responses. Every Worker owns one Aggregator, which runs
// the pushed update rule next to the worker's resident variables (the design
// of the preliminary whitepaper's parameter server). A round sums and divides
// dense gradients in buffers the aggregator keeps from round to round, and
// the task decodes each pushed dense gradient into one of them, so a
// steady-state round allocates no variable-sized tensor of its own.

// UpdateRule is the serializable optimizer spec a worker ships to the
// shard, which builds the rule's graph (optim.Apply — the same ops tf/train
// emits client-side) against its resident variables.
type UpdateRule = optim.Rule

// psRound accumulates one round's gradient contributions.
type psRound struct {
	contrib  map[string]bool // origin task → contributed (dedup)
	rule     UpdateRule
	numFresh int
	stepName string
	sums     map[string]*gradSum
	applying bool // being applied: takes no more contributions
	waiters  []chan pushResult
}

// gradSum is one variable's share of a round: the running sum of dense
// contributions, or the sparse contributions themselves (summed per unique
// row when the round applies). Both are the aggregator's own from the first
// contribution: dense is a buffer of its spare list, viewed as the variable,
// in which the sum and then the mean are taken; sparse holds tensors no
// pusher still has.
type gradSum struct {
	dt     tensor.DType
	shape  tensor.Shape // the variable's
	dense  *tensor.Tensor
	sparse []GradientPush
}

type pushResult struct {
	round   int64
	applied bool
	err     error
}

// Aggregator is the round-tagged m-of-n gradient barrier (§4.4, Figure
// 4b/4c) in front of one worker's resident variables: a gradient must match
// the variable it names (Worker.residentSpec), and each completed round's
// per-variable means — Dense, or unique row Indices with their mean Values —
// are applied under the rule and step-counter name the round's pushers
// agreed on (Worker.applyRules).
type Aggregator struct {
	w *Worker

	applyMu sync.Mutex // serializes apply: rounds never interleave their updates
	mu      sync.Mutex
	applied int64 // highest round already applied; -1 before any
	pending map[int64]*psRound
	// spare holds dense gradient buffers between rounds, by what they can
	// be viewed as (like the executor's free list). The task decodes pushes
	// into them (decodeAlloc), a round sums in them, and each goes back
	// once the round is done with it. Only accepted contributions and sums
	// go back, so every key is a resident variable's dtype and element
	// count, and a peer cannot grow the list.
	spare map[spareKey][]*tensor.Tensor
}

type spareKey struct {
	dt    tensor.DType
	elems int
}

func newAggregator(w *Worker) *Aggregator {
	return &Aggregator{w: w, applied: -1, pending: map[int64]*psRound{}, spare: map[spareKey][]*tensor.Tensor{}}
}

// decodeAlloc is the Alloc a task decodes a push's dense gradients with: a
// spare buffer viewed as dt and shape when one fits, else a new one, whose
// stale contents the decoder overwrites. A buffer decoded for a push the round
// does not accept (stale, duplicate, rejected) is left to the collector.
func (a *Aggregator) decodeAlloc(dt tensor.DType, shape tensor.Shape) *tensor.Tensor {
	a.mu.Lock()
	defer a.mu.Unlock()
	k := spareKey{dt, shape.NumElements()}
	if l := a.spare[k]; len(l) > 0 {
		t := l[len(l)-1]
		l[len(l)-1] = nil
		a.spare[k] = l[:len(l)-1]
		return t.ViewAs(shape)
	}
	return tensor.New(dt, shape)
}

// put puts a buffer the aggregator owns on the spare list. Caller holds
// a.mu.
func (a *Aggregator) put(t *tensor.Tensor) {
	k := spareKey{t.DType(), t.NumElements()}
	a.spare[k] = append(a.spare[k], t)
}

// into is an Alloc handing out t, for a tensor function writing in place.
func into(t *tensor.Tensor) tensor.Alloc {
	return func(tensor.DType, tensor.Shape) *tensor.Tensor { return t }
}

// release hands every waiter of every pending round res and forgets the
// waiters.
func (a *Aggregator) release(res pushResult) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, rd := range a.pending {
		for _, ch := range rd.waiters {
			ch <- res
		}
		rd.waiters = nil
	}
}

// push accumulates the caller's contribution to its round and blocks until
// the round is applied (or until the caller aborts). Rounds already applied
// acknowledge immediately — the idempotence that makes retransmits and
// duplicate deliveries harmless. A contribution that does not fit the
// variables it addresses, or disagrees with its round's first pusher about
// the rule or m, is rejected without touching the round. req was decoded
// for this push alone, so the round keeps its tensors instead of copying.
func (a *Aggregator) push(req *PushGradientsReq, abort <-chan struct{}) (*PushGradientsResp, error) {
	if req.NumFresh <= 0 {
		return nil, fmt.Errorf("distributed: PushGradients needs NumFresh > 0")
	}
	if err := req.Rule.Validate(); err != nil {
		return nil, fmt.Errorf("distributed: %s: %w", a.w.task, err)
	}
	a.mu.Lock()
	if req.Round <= a.applied {
		// Stale or retransmitted round: already applied here. Ack without
		// touching state.
		applied := a.applied
		a.mu.Unlock()
		return &PushGradientsResp{Round: applied, Applied: false}, nil
	}
	rd := a.pending[req.Round]
	if rd == nil {
		rd = &psRound{contrib: map[string]bool{}, rule: req.Rule, numFresh: req.NumFresh,
			stepName: req.StepName, sums: map[string]*gradSum{}}
	}
	// Whether this is a fresh contribution or an in-flight duplicate, the
	// caller waits for the round to apply.
	if !rd.contrib[req.Origin] && !rd.applying {
		if err := a.accept(rd, req); err != nil {
			a.mu.Unlock()
			return nil, err
		}
	}
	a.pending[req.Round] = rd
	ch := make(chan pushResult, 1)
	rd.waiters = append(rd.waiters, ch)
	ready := !rd.applying && len(rd.contrib) >= rd.numFresh
	if ready {
		rd.applying = true
	}
	a.mu.Unlock()
	if ready {
		a.applyRound(req.Round, rd)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, r.err
		}
		return &PushGradientsResp{Round: r.round, Applied: r.applied}, nil
	case <-abort:
		return nil, fmt.Errorf("distributed: PushGradients aborted")
	}
}

// accept validates req against the round and the variables it addresses,
// then folds its gradients into the round's sums. Nothing is folded unless
// everything is valid, so a rejected push leaves the round as it was for
// the other pushers. The tensors are adopted: a first dense contribution
// becomes the sum, a later one goes back on the spare list once added in.
// Caller holds the aggregator's lock.
func (a *Aggregator) accept(rd *psRound, req *PushGradientsReq) error {
	if req.Rule != rd.rule || req.NumFresh != rd.numFresh {
		return fmt.Errorf("distributed: push from %s for round %d carries rule %+v, m=%d; the round's first pusher set %+v, m=%d",
			req.Origin, req.Round, req.Rule, req.NumFresh, rd.rule, rd.numFresh)
	}
	sums := make(map[string]*gradSum, len(req.Grads)) // this push's, by variable
	for _, g := range req.Grads {
		if sums[g.Name] != nil {
			return fmt.Errorf("distributed: push from %s names %q twice", req.Origin, g.Name)
		}
		sum := rd.sums[g.Name]
		if sum == nil {
			dt, shape, err := a.w.residentSpec(g.Name)
			if err != nil {
				return err
			}
			sum = &gradSum{dt: dt, shape: shape}
		}
		if err := sum.check(g); err != nil {
			return fmt.Errorf("distributed: push from %s: gradient for %q %w", req.Origin, g.Name, err)
		}
		sums[g.Name] = sum
	}
	for _, g := range req.Grads {
		sum := sums[g.Name]
		rd.sums[g.Name] = sum
		switch {
		case g.Dense == nil:
			sum.sparse = append(sum.sparse, g)
		case sum.dense == nil:
			sum.dense = g.Dense.ViewAs(sum.shape)
		default:
			if _, err := tensor.Binary(into(sum.dense), tensor.OpAdd, sum.dense, g.Dense.ViewAs(sum.shape)); err != nil {
				return err
			}
			a.put(g.Dense)
		}
	}
	rd.contrib[req.Origin] = true
	return nil
}

// check validates one gradient against the variable it addresses and the
// contributions already summed for it: exactly one of dense or sparse, the
// variable's dtype, its element count (dense) or row width and row range
// (sparse).
func (s *gradSum) check(g GradientPush) error {
	dense, sparse := g.Dense != nil, g.Indices != nil && g.Values != nil
	switch {
	case dense == sparse || (dense && (g.Indices != nil || g.Values != nil)):
		return fmt.Errorf("must carry either a dense tensor or an (indices, values) pair")
	case (dense && s.sparse != nil) || (sparse && s.dense != nil):
		return fmt.Errorf("mixes dense and sparse contributions in one round")
	case dense:
		if g.Dense.DType() != s.dt || g.Dense.NumElements() != s.shape.NumElements() {
			return fmt.Errorf("is %v%v; the variable is %v%v", g.Dense.DType(), g.Dense.Shape(), s.dt, s.shape)
		}
		return nil
	}
	if s.shape.Rank() < 1 {
		return fmt.Errorf("is sparse; the variable is a scalar")
	}
	rows, n := s.shape[0], g.Indices.NumElements()
	if !g.Indices.DType().IsInteger() || g.Values.DType() != s.dt || g.Values.NumElements() != n*s.shape[1:].NumElements() {
		return fmt.Errorf("has %v%v indices and %v%v values; the variable is %v%v",
			g.Indices.DType(), g.Indices.Shape(), g.Values.DType(), g.Values.Shape(), s.dt, s.shape)
	}
	for i := 0; i < n; i++ {
		if row := g.Indices.IntAt(i); row < 0 || row >= rows {
			return fmt.Errorf("names row %d; the variable has rows [0,%d)", row, rows)
		}
	}
	return nil
}

// mean divides the variable's summed contributions by m, in place. Sparse
// contributions are first summed per unique row, in first-seen order, into a
// buffer of their own, so the result names each touched row once.
func (s *gradSum) mean(name string, m int) (GradientPush, error) {
	out := GradientPush{Name: name}
	sum := s.dense
	if sum == nil {
		pos := map[int]int32{}
		var ids []int32
		local := make([]*tensor.Tensor, len(s.sparse))
		for k, g := range s.sparse {
			idx := make([]int32, g.Indices.NumElements())
			for i := range idx {
				row := g.Indices.IntAt(i)
				p, seen := pos[row]
				if !seen {
					p = int32(len(ids))
					pos[row] = p
					ids = append(ids, int32(row))
				}
				idx[i] = p
			}
			local[k] = tensor.FromInt32s(tensor.Shape{len(idx)}, idx)
		}
		sum = tensor.New(s.dt, append(tensor.Shape{len(ids)}, s.shape[1:]...))
		for k, g := range s.sparse {
			if err := tensor.ScatterAddInPlace(sum, local[k], g.Values); err != nil {
				return out, err
			}
		}
		out.Indices = tensor.FromInt32s(tensor.Shape{len(ids)}, ids)
	}
	mean, err := tensor.Binary(into(sum), tensor.OpDiv, sum, tensor.ScalarOf(s.dt, float64(m)))
	if err != nil {
		return out, err
	}
	if out.Indices != nil {
		out.Values = mean
	} else {
		out.Dense = mean
	}
	return out, nil
}

// applyRound applies one complete round's means to the worker's variables,
// then advances the applied mark and releases every waiter whose round is now
// at or below it. The apply runs without the aggregator's lock; the round's
// applying mark keeps late pushers from changing the sums meanwhile.
func (a *Aggregator) applyRound(round int64, rd *psRound) {
	a.applyMu.Lock()
	defer a.applyMu.Unlock()
	means := make([]GradientPush, 0, len(rd.sums))
	var err error
	for name, sum := range rd.sums {
		var mean GradientPush
		if mean, err = sum.mean(name, rd.numFresh); err != nil {
			break
		}
		means = append(means, mean)
	}
	if err == nil {
		err = a.w.applyRules(round, rd.rule, rd.stepName, means)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.pending[round] != rd {
		return // the aggregator was reset meanwhile; the waiters are gone
	}
	// No kernel of a rule keeps a fed gradient: the sums are spare again.
	for _, sum := range rd.sums {
		if sum.dense != nil {
			a.put(sum.dense)
		}
	}
	if err != nil {
		for _, ch := range rd.waiters {
			ch <- pushResult{err: err}
		}
		delete(a.pending, round)
		return
	}
	if round > a.applied {
		a.applied = round
	}
	// Release this round's waiters and any straggler blocked on an older
	// round that can no longer complete (its contributions are stale).
	for r, prd := range a.pending {
		if r > a.applied {
			continue
		}
		for _, ch := range prd.waiters {
			ch <- pushResult{round: a.applied, applied: r == round}
		}
		delete(a.pending, r)
	}
}

// PushGradients implements the service as the in-process round trip: once the
// round is complete the shard applies req.Rule to its own decoded copy of req,
// so the caller may reuse req's tensors once the call returns.
func (w *Worker) PushGradients(req *PushGradientsReq, abort <-chan struct{}) (*PushGradientsResp, error) {
	return as[*PushGradientsResp](inProc{w}.Call(mPushGradients, req, abort))
}

// A worker applies update rules to its resident variables by running the
// rule's own graph: the executable for each (rule, variable, dense|sparse)
// is compiled on first use and kept in Worker.rules until the task resets.
type ruleKey struct {
	rule   UpdateRule
	name   string
	sparse bool
}

type ruleExec struct {
	dt     tensor.DType // of the variable the graph was built for
	shape  tensor.Shape
	update *exec.Executable
	graph  *graph.Graph // the rule graph; slot initializers compile from it on demand
	slots  []optim.Slot
}

// residentSpec reports the resident variable a gradient for name must match.
func (w *Worker) residentSpec(name string) (dt tensor.DType, shape tensor.Shape, err error) {
	v := w.dev.Resources().LookupVariable(name)
	if v == nil {
		return dt, nil, fmt.Errorf("distributed: push for unknown variable %q", name)
	}
	if err := v.WithValue(func(cur *tensor.Tensor) error {
		dt, shape = cur.DType(), cur.Shape()
		return nil
	}); err != nil {
		return dt, nil, fmt.Errorf("distributed: push for variable %q: %w", name, err)
	}
	return dt, shape, nil
}

// ruleFor returns the executable applying rule to the named variable from
// a mean gradient of g's kind, building the rule graph on first use.
func (w *Worker) ruleFor(rule UpdateRule, g GradientPush) (*ruleExec, error) {
	dt, shape, err := w.residentSpec(g.Name)
	if err != nil {
		return nil, err
	}
	key := ruleKey{rule: rule, name: g.Name, sparse: g.Dense == nil}
	w.mu.Lock()
	defer w.mu.Unlock()
	if re := w.rules[key]; re != nil && re.dt == dt && re.shape.Equal(shape) {
		return re, nil
	}
	gr := graph.New()
	b := build.New(gr)
	feed := func(dt tensor.DType, shape tensor.Shape) graph.Endpoint {
		return b.Op("Placeholder", nil, map[string]any{"dtype": dt, "shape": shape})
	}
	var grad optim.Grad
	var feeds []graph.Endpoint
	if key.sparse {
		grad.Indices = feed(tensor.Int32, tensor.Shape{-1})
		grad.Values = feed(dt, append(tensor.Shape{-1}, shape[1:]...))
		feeds = []graph.Endpoint{grad.Indices, grad.Values}
	} else {
		grad.Dense = feed(dt, shape)
		feeds = []graph.Endpoint{grad.Dense}
	}
	v := b.Variable(g.Name, dt, shape)
	if v == nil {
		return nil, b.Err()
	}
	update, slots := optim.Apply(b, rule, optim.Var{Name: g.Name, Ref: v.Out(0), B: b}, grad)
	if err := b.Err(); err != nil {
		return nil, fmt.Errorf("distributed: building %s for %q: %w", rule.Algo, g.Name, err)
	}
	ex, err := exec.Compile(gr, feeds, nil, []*graph.Node{update}, w.dev.Spec().Type)
	if err != nil {
		return nil, fmt.Errorf("distributed: compiling %s for %q: %w", rule.Algo, g.Name, err)
	}
	re := &ruleExec{dt: dt, shape: shape, update: ex, graph: gr, slots: slots}
	w.rules[key] = re
	return re, nil
}

// applyRules runs the rule for every variable of a completed round, then
// advances the step counter — an idempotent SET to round+1, not an
// increment, so replayed or re-pushed rounds land on the same step value.
func (w *Worker) applyRules(round int64, rule UpdateRule, stepName string, means []GradientPush) error {
	res := w.dev.Resources()
	for _, g := range means {
		feeds := []*tensor.Tensor{g.Dense}
		if g.Dense == nil {
			if g.Indices.NumElements() == 0 {
				continue
			}
			feeds = []*tensor.Tensor{g.Indices, g.Values}
		}
		re, err := w.ruleFor(rule, g)
		if err != nil {
			return err
		}
		// A slot the client never initialized here (a shard that joined
		// without Init) starts from the rule's own initializer.
		for _, slot := range re.slots {
			if v := res.LookupVariable(slot.Name); v != nil && v.Initialized() {
				continue
			}
			init, err := exec.Compile(re.graph, nil, nil, []*graph.Node{slot.Init}, w.dev.Spec().Type)
			if err == nil {
				_, err = init.Run(exec.RunParams{Resources: res})
			}
			if err != nil {
				return fmt.Errorf("distributed: initializing %q: %w", slot.Name, err)
			}
		}
		if _, err := re.update.Run(exec.RunParams{FeedValues: feeds, Resources: res}); err != nil {
			return fmt.Errorf("distributed: applying %s to %q: %w", rule.Algo, g.Name, err)
		}
	}
	if stepName != "" {
		gs := res.FindOrCreateVariable(stepName, tensor.Int32, tensor.ScalarShape())
		if err := gs.Assign(tensor.ScalarInt(int32(round + 1))); err != nil {
			return fmt.Errorf("distributed: advancing %q: %w", stepName, err)
		}
	}
	return nil
}
