package distributed

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/placement"
	"repro/internal/tensor"
)

// globalStepBase makes step IDs unique across masters sharing workers in
// one process, and across processes sharing a TCP cluster.
var globalStepCounter atomic.Int64

func nextStepID() int64 {
	return (int64(os.Getpid()) << 32) | globalStepCounter.Add(1)
}

// Master translates client Run calls into distributed execution (§5):
// given a graph and a step definition it prunes, optimizes, places and
// partitions the graph, registers the per-device subgraphs with each
// participating task, caches the result per step definition (graph.Steps,
// shared with the local session), and then coordinates each step with one
// RunGraph call per task — "a distributed step on a large graph can be
// initiated with one small message to each participating task" (§3.3).
type Master struct {
	g        *graph.Graph
	cluster  ClusterSpec
	resolver Resolver
	devices  []device.Spec
	defDev   device.Spec
	retries  int
	steps    *graph.Steps[*compiledStep]
}

type compiledStep struct {
	parts []*stepPart
	// fetchSrc locates each fetch: feed index (when a fed endpoint is
	// fetched directly) or (part, position) otherwise.
	fetchSrc []fetchSource
}

type stepPart struct {
	task    string
	handle  string
	feedEPs []graph.Endpoint // original endpoints, order matches registration
	fetches []graph.Endpoint
}

type fetchSource struct {
	feedIdx int // >= 0 when served by a feed
	part    int
	pos     int
}

// MasterOptions configures a master.
type MasterOptions struct {
	// DisableOptimizations turns off CSE and constant folding.
	DisableOptimizations bool
	// DefaultDevice receives unconstrained nodes; defaults to the first
	// cluster device.
	DefaultDevice string
	// StepRetries is how many times Run retries a step after a retryable
	// failure (task unreachable, registered handles lost to a task
	// restart, §4.3). Each retry drops the compiled-step cache so
	// subgraphs re-register through freshly resolved transports, and runs
	// under a new step ID.
	StepRetries int
}

// NewMaster creates a master for the graph over the cluster.
func NewMaster(g *graph.Graph, cluster ClusterSpec, resolver Resolver, opts MasterOptions) (*Master, error) {
	devices := cluster.Devices()
	if len(devices) == 0 {
		return nil, fmt.Errorf("distributed: cluster has no devices")
	}
	defDev := devices[0]
	if opts.DefaultDevice != "" {
		spec, err := device.ParseSpec(opts.DefaultDevice)
		if err != nil {
			return nil, err
		}
		found := false
		for _, d := range devices {
			if d.Matches(spec) {
				defDev = d
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("distributed: default device %q not in cluster", opts.DefaultDevice)
		}
	}
	m := &Master{
		g:        g,
		cluster:  cluster,
		resolver: resolver,
		devices:  devices,
		defDev:   defDev,
		retries:  opts.StepRetries,
	}
	var pipe *graph.Pipeline
	if !opts.DisableOptimizations {
		// Master-side optimization pipeline (§5): constant folding, CSE,
		// sparse reads, kernel fusion, dead-marking. The fusion pass only
		// merges nodes with identical device constraints, so it never
		// crosses a partition boundary; the sparse read moves a lookup onto
		// its variable's task, which is the point of it.
		pipe = graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{})
	}
	m.steps = graph.NewSteps(g, pipe, m.compile)
	return m, nil
}

// sortedEndpoints returns m's keys in the order of their "name:index" text.
func sortedEndpoints[V any](m map[graph.Endpoint]V) []graph.Endpoint {
	return slices.SortedFunc(maps.Keys(m), func(a, b graph.Endpoint) int { return strings.Compare(a.String(), b.String()) })
}

// compile builds the execution plan for a step definition whose fetches
// m.steps has already remapped: it prunes, places and partitions the graph
// and registers each partition with its task.
func (m *Master) compile(feeds, fetches []graph.Endpoint, targets []*graph.Node) (*compiledStep, error) {
	set, err := graph.Prune(m.g, feeds, fetches, targets)
	if err != nil {
		return nil, err
	}
	asg, err := placement.Place(m.g, set, m.devices, m.defDev)
	if err != nil {
		return nil, err
	}
	parts, err := partition.Partition(m.g, set, asg, feeds, fetches, targets)
	if err != nil {
		return nil, err
	}

	cs := &compiledStep{}
	fed := map[graph.Endpoint]int{}
	for i, f := range feeds {
		fed[f] = i
	}

	// Deterministic partition order.
	for _, devName := range slices.Sorted(maps.Keys(parts.Parts)) {
		p := parts.Parts[devName]
		task, err := taskOfDevice(devName)
		if err != nil {
			return nil, err
		}
		bytes, err := p.Graph.Marshal()
		if err != nil {
			return nil, err
		}
		req := &RegisterGraphReq{GraphBytes: bytes}
		sp := &stepPart{task: task}

		for _, orig := range sortedEndpoints(p.Feeds) {
			local := p.Feeds[orig]
			req.Feeds = append(req.Feeds, fmt.Sprintf("%s:%d", local.Node.Name(), local.Index))
			sp.feedEPs = append(sp.feedEPs, orig)
		}

		for _, orig := range sortedEndpoints(p.Fetches) {
			local := p.Fetches[orig]
			req.Fetches = append(req.Fetches, fmt.Sprintf("%s:%d", local.Node.Name(), local.Index))
			sp.fetches = append(sp.fetches, orig)
		}
		for _, t := range p.Targets {
			req.Targets = append(req.Targets, t.Name())
		}
		// Every node of a partition must execute (the global prune already
		// ran): register the partition's sinks — nodes nothing consumes —
		// as targets, so Send nodes and stateful updates fire even in
		// partitions with no fetch.
		for _, name := range partitionSinks(p.Graph) {
			req.Targets = append(req.Targets, name)
		}

		tr, err := m.resolver(task)
		if err != nil {
			return nil, err
		}
		resp, err := tr.RegisterGraph(req)
		if err != nil {
			return nil, fmt.Errorf("distributed: registering on %s: %w", task, err)
		}
		sp.handle = resp.Handle
		cs.parts = append(cs.parts, sp)
	}

	// Locate each fetch.
	cs.fetchSrc = make([]fetchSource, len(fetches))
fetches:
	for i, f := range fetches {
		if fi, ok := fed[f]; ok {
			cs.fetchSrc[i] = fetchSource{feedIdx: fi}
			continue
		}
		for pi, sp := range cs.parts {
			if pos := slices.Index(sp.fetches, f); pos >= 0 {
				cs.fetchSrc[i] = fetchSource{feedIdx: -1, part: pi, pos: pos}
				continue fetches
			}
		}
		return nil, fmt.Errorf("distributed: fetch %v not assigned to any partition", f)
	}
	return cs, nil
}

// Run executes one distributed step. Retryable failures — a task became
// unreachable or lost its registered subgraphs to a restart (§4.3) — are
// retried up to MasterOptions.StepRetries times: the compiled-step cache is
// dropped so subgraphs re-register over freshly resolved transports, and
// the step reruns under a new step ID. Closing abort (nil never fires) ends
// the step on every participant, which closes the Abort of each kernel still
// running, and Run returns an error without retrying.
func (m *Master) Run(feeds map[graph.Endpoint]*tensor.Tensor, fetches []graph.Endpoint, targets []*graph.Node, abort <-chan struct{}) ([]*tensor.Tensor, error) {
	feedEPs := sortedEndpoints(feeds)
	for attempt := 0; ; attempt++ {
		out, err := m.runOnce(feeds, feedEPs, fetches, targets, abort)
		if err == nil || attempt >= m.retries || !IsRetryable(err) {
			return out, err
		}
		// A restarted task holds none of our handles and the resolver may
		// cache a dead connection: drop the compiled plans (re-register on
		// the next compile) and give the task a moment to come back, waiting
		// exponentially longer (with jitter) each consecutive failure.
		m.Invalidate()
		backoff := 25 * time.Millisecond << attempt
		if backoff > 800*time.Millisecond || backoff <= 0 {
			backoff = 800 * time.Millisecond
		}
		select {
		case <-time.After(backoff/2 + time.Duration(rand.Int63n(int64(backoff)))):
		case <-abort:
			return nil, fmt.Errorf("distributed: step aborted while retrying: %w", err)
		}
	}
}

// Invalidate drops every compiled step, forcing the next Run to re-register
// subgraphs on (possibly restarted) workers.
func (m *Master) Invalidate() { m.steps.Reset() }

func (m *Master) runOnce(feeds map[graph.Endpoint]*tensor.Tensor, feedEPs, fetches []graph.Endpoint, targets []*graph.Node, abort <-chan struct{}) ([]*tensor.Tensor, error) {
	cs, err := m.steps.Get(feedEPs, fetches, targets)
	if err != nil {
		return nil, err
	}
	stepID := nextStepID()

	type partResult struct {
		idx  int
		resp *RunGraphResp
		err  error
	}
	results := make(chan partResult, len(cs.parts))
	for i, sp := range cs.parts {
		go func(i int, sp *stepPart) {
			tr, err := m.resolver(sp.task)
			if err != nil {
				results <- partResult{idx: i, err: err}
				return
			}
			vals := make([]*tensor.Tensor, len(sp.feedEPs))
			for j, ep := range sp.feedEPs {
				vals[j] = feeds[ep]
			}
			resp, err := tr.RunGraph(&RunGraphReq{Handle: sp.handle, StepID: stepID, Feeds: vals})
			results <- partResult{idx: i, resp: resp, err: err}
		}(i, sp)
	}
	partResps := make([]*RunGraphResp, len(cs.parts))
	var firstErr error
	// fail ends the step on its first error: every participant is aborted
	// once, so peers blocked on the failed task (or a kernel blocked on the
	// caller's abort) unblock, and each aborted RunGraph reclaims its own
	// residual rendezvous buffers when its executor stops.
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			m.endStep(cs, stepID)
		}
	}
	for pending := len(cs.parts); pending > 0; {
		select {
		case r := <-results:
			pending--
			if r.err != nil {
				fail(fmt.Errorf("distributed: step %d on %s: %w", stepID, cs.parts[r.idx].task, r.err))
			}
			partResps[r.idx] = r.resp
		case <-abort:
			abort = nil
			fail(fmt.Errorf("distributed: step %d aborted", stepID))
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := make([]*tensor.Tensor, len(fetches))
	for i, src := range cs.fetchSrc {
		if src.feedIdx >= 0 {
			out[i] = feeds[feedEPs[src.feedIdx]]
			continue
		}
		resp := partResps[src.part]
		if resp == nil || src.pos >= len(resp.Fetches) {
			return nil, fmt.Errorf("distributed: fetch %v missing from %s", fetches[i], cs.parts[src.part].task)
		}
		out[i] = resp.Fetches[src.pos]
	}
	return out, nil
}

// partitionSinks returns the names of nodes with no consumers.
func partitionSinks(g *graph.Graph) []string {
	consumed := map[int]bool{}
	for _, n := range g.Nodes() {
		for _, in := range n.Inputs() {
			consumed[in.Node.ID()] = true
		}
		for _, c := range n.ControlInputs() {
			consumed[c.ID()] = true
		}
	}
	var out []string
	for _, n := range g.Nodes() {
		if !consumed[n.ID()] {
			out = append(out, n.Name())
		}
	}
	return out
}

// endStep aborts a failed (or caller-aborted) step on every participating
// task; a step that succeeds needs no such round, because it leaves nothing
// behind (Worker.RunGraph). A lost AbortStep would leave that task's
// executor blocked in a receive its failed peer will never satisfy (and the
// RunGraph that carries it, and so the step, blocked with it); the call is
// idempotent, so transport failures are retried within the step-retry
// budget. A task that stays unreachable has no executor to unblock.
func (m *Master) endStep(cs *compiledStep, stepID int64) {
	for _, sp := range cs.parts {
		_ = m.resolver.OnTask(sp.task, m.retries, func(tr Transport) error {
			return tr.AbortStep(&AbortStepReq{StepID: stepID})
		})
	}
}

// CachedSteps reports how many step definitions have been compiled.
func (m *Master) CachedSteps() int { return m.steps.Len() }
