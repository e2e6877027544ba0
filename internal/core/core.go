// Package core implements the local session: the client-facing object that
// owns a graph, compiles pruned subgraphs on demand, caches them per
// (feeds, fetches, targets) step definition, and executes steps against a
// local device. It is the single-process analogue of the distributed master
// (paper §3.2, §5): "a client session maintains the mapping from step
// definitions to cached subgraphs". The mapping itself is graph.Steps, which
// the master shares.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/rendezvous"
	"repro/internal/tensor"
)

// Options configures a Session.
type Options struct {
	// Optimize enables the master-style graph optimization pipeline (§5):
	// constant folding, common-subexpression elimination, kernel fusion
	// and dead-node marking, applied lazily the first time a subgraph is
	// compiled.
	Optimize bool
	// DisableFusion keeps Optimize's folding and CSE but skips the
	// kernel-fusion pass (used by ablation benchmarks and as an escape
	// hatch for kernels under debugging).
	DisableFusion bool
}

// Session executes steps of one graph on one local device. It is safe for
// concurrent use: multiple Run calls execute as concurrent steps sharing
// the device's stateful resources (§3.2).
type Session struct {
	dev    *device.Device
	rendez *rendezvous.Local
	steps  *graph.Steps[*exec.Executable]

	stepCounter atomic.Int64
	closed      atomic.Bool
}

// NewSession creates a session over g with a fresh CPU device.
func NewSession(g *graph.Graph, opts Options) *Session {
	var pipe *graph.Pipeline
	if opts.Optimize {
		// Folding runs no stateful kernel, so it needs no resources.
		pipe = graph.NewPipeline(exec.Evaluator("CPU", nil), graph.PipelineOptions{DisableFusion: opts.DisableFusion})
	}
	return &Session{
		dev:    device.NewCPU("localhost", 0, 0),
		rendez: rendezvous.NewLocal(),
		steps: graph.NewSteps(g, pipe, func(feeds, fetches []graph.Endpoint, targets []*graph.Node) (*exec.Executable, error) {
			return exec.Compile(g, feeds, fetches, targets, "CPU")
		}),
	}
}

// Device returns the session's device (tests and tools use its resources).
func (s *Session) Device() *device.Device { return s.dev }

// Executable compiles (or returns the cached) subgraph for a step
// definition. Feeds are given as endpoints, and the executable takes their
// values in that order per Run.
func (s *Session) Executable(feeds []graph.Endpoint, fetches []graph.Endpoint, targets []*graph.Node) (*exec.Executable, error) {
	return s.steps.Get(feeds, fetches, targets)
}

// Run executes one step: it feeds the given endpoint/tensor pairs, runs
// every target node, and returns the fetched tensors in order.
func (s *Session) Run(feeds map[graph.Endpoint]*tensor.Tensor, fetches []graph.Endpoint, targets []*graph.Node) ([]*tensor.Tensor, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("core: session is closed")
	}
	feedEPs := make([]graph.Endpoint, 0, len(feeds))
	for ep := range feeds {
		if ep.Node == nil {
			return nil, fmt.Errorf("core: a feed endpoint has no node")
		}
		feedEPs = append(feedEPs, ep)
	}
	slices.SortFunc(feedEPs, func(a, b graph.Endpoint) int { // any fixed order keys graph.Steps
		return cmp.Or(cmp.Compare(a.Node.ID(), b.Node.ID()), cmp.Compare(a.Index, b.Index))
	})
	ex, err := s.Executable(feedEPs, fetches, targets)
	if err != nil {
		return nil, err
	}
	vals := make([]*tensor.Tensor, len(feedEPs))
	for i, ep := range feedEPs {
		vals[i] = feeds[ep]
	}
	return ex.Run(exec.RunParams{
		FeedValues: vals,
		Resources:  s.dev.Resources(),
		Rendezvous: s.rendez,
		StepID:     s.stepCounter.Add(1),
	})
}

// CachedSubgraphs reports how many step definitions have been compiled.
func (s *Session) CachedSubgraphs() int { return s.steps.Len() }

// Close marks the session closed. Stateful resources are dropped, and the
// compiled steps are forgotten and their pool workers stopped.
func (s *Session) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.dev.Resources().Reset()
		for _, ex := range s.steps.Reset() {
			ex.Close()
		}
	}
}
