// Package core implements the local session: the client-facing object that
// owns a graph, compiles pruned subgraphs on demand, caches them per
// (feeds, fetches, targets) signature, and executes steps against a local
// device. It is the single-process analogue of the distributed master
// (paper §3.2, §5): "a client session maintains the mapping from step
// definitions to cached subgraphs".
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// DeviceType selects the kernel set; defaults to "CPU".
	DeviceType string
}

// Session executes steps of one graph on one local device. It is safe for
// concurrent use: multiple Run calls execute as concurrent steps sharing
// the device's stateful resources (§3.2).
type Session struct {
	g      *graph.Graph
	dev    *device.Device
	rendez *rendezvous.Local
	opts   Options

	mu    sync.Mutex
	cache map[string]*exec.Executable
	// opt is what the pass pipeline did to the graph; nil until the first
	// compile, empty when the session does not optimize.
	opt *graph.Result

	// last remembers the most recent step definition so a training loop
	// repeating one step skips the signature build on every iteration.
	last struct {
		feeds   []graph.Endpoint
		fetches []graph.Endpoint
		targets []*graph.Node
		ex      *exec.Executable
	}

	stepCounter atomic.Int64
	closed      atomic.Bool
}

// NewSession creates a session over g with a fresh CPU device.
func NewSession(g *graph.Graph, opts Options) *Session {
	if opts.DeviceType == "" {
		opts.DeviceType = "CPU"
	}
	return &Session{
		g:      g,
		dev:    device.NewCPU("localhost", 0, 0),
		rendez: rendezvous.NewLocal(),
		opts:   opts,
		cache:  map[string]*exec.Executable{},
	}
}

// Device returns the session's device (tests and tools use its resources).
func (s *Session) Device() *device.Device { return s.dev }

// Graph returns the session's graph.
func (s *Session) Graph() *graph.Graph { return s.g }

// signature builds the cache key for a step definition.
func signature(feeds []graph.Endpoint, fetches []graph.Endpoint, targets []*graph.Node) string {
	parts := make([]string, 0, len(feeds)+len(fetches)+len(targets)+3)
	for _, f := range feeds {
		parts = append(parts, "f:"+f.String())
	}
	sort.Strings(parts)
	parts = append(parts, "|")
	for _, f := range fetches {
		parts = append(parts, "o:"+f.String())
	}
	parts = append(parts, "|")
	for _, t := range targets {
		parts = append(parts, "t:"+t.Name())
	}
	return strings.Join(parts, ";")
}

// optimizeOnce runs the compile-time pass pipeline (folding, CSE, sparse
// reads, fusion, dead-marking — graph.NewPipeline) the first time any
// subgraph is compiled. Its result remaps fetches of endpoints that moved
// and refuses feeds on endpoints whose consumers were rewired. Errors are
// deliberately non-fatal: an unoptimized graph is still correct, and every
// pass leaves the graph consistent even when a later one fails.
func (s *Session) optimizeOnce() {
	if s.opt != nil {
		return
	}
	s.opt = &graph.Result{}
	if s.opts.Optimize {
		pipe := graph.NewPipeline(
			exec.Evaluator(s.opts.DeviceType, s.dev.Resources()),
			graph.PipelineOptions{DisableFusion: s.opts.DisableFusion},
		)
		s.opt, _ = pipe.Run(s.g)
	}
}

// Executable compiles (or returns the cached) subgraph for a step
// definition. Feeds are given as endpoints; values are supplied per Run.
func (s *Session) Executable(feeds []graph.Endpoint, fetches []graph.Endpoint, targets []*graph.Node) (*exec.Executable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Repeated-step fast path: a loop re-running the previous definition
	// pays an O(n) comparison instead of rebuilding the signature string.
	if s.last.ex != nil && slices.Equal(feeds, s.last.feeds) &&
		slices.Equal(fetches, s.last.fetches) && slices.Equal(targets, s.last.targets) {
		return s.last.ex, nil
	}
	s.optimizeOnce()
	remappedFetches := make([]graph.Endpoint, len(fetches))
	for i, f := range fetches {
		remappedFetches[i] = graph.Remap(s.opt.Replaced, f)
	}
	key := signature(feeds, remappedFetches, targets)
	if ex, ok := s.cache[key]; ok {
		s.rememberLast(feeds, fetches, targets, ex)
		return ex, nil
	}
	if err := s.opt.CheckFeeds(feeds); err != nil {
		return nil, err
	}
	ex, err := exec.Compile(s.g, feeds, remappedFetches, targets, s.opts.DeviceType)
	if err != nil {
		return nil, err
	}
	s.cache[key] = ex
	s.rememberLast(feeds, fetches, targets, ex)
	return ex, nil
}

// rememberLast records the step definition for the repeated-step fast path
// (defensive copies: callers may reuse their slices).
func (s *Session) rememberLast(feeds, fetches []graph.Endpoint, targets []*graph.Node, ex *exec.Executable) {
	s.last.feeds = append(s.last.feeds[:0], feeds...)
	s.last.fetches = append(s.last.fetches[:0], fetches...)
	s.last.targets = append(s.last.targets[:0], targets...)
	s.last.ex = ex
}

// Run executes one step: it feeds the given endpoint/tensor pairs, runs
// every target node, and returns the fetched tensors in order.
func (s *Session) Run(feeds map[graph.Endpoint]*tensor.Tensor, fetches []graph.Endpoint, targets []*graph.Node) ([]*tensor.Tensor, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("core: session is closed")
	}
	feedEPs := make([]graph.Endpoint, 0, len(feeds))
	for ep := range feeds {
		feedEPs = append(feedEPs, ep)
	}
	sort.Slice(feedEPs, func(i, j int) bool { return feedEPs[i].String() < feedEPs[j].String() })
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
func (s *Session) CachedSubgraphs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Close marks the session closed. Stateful resources are dropped.
func (s *Session) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.dev.Resources().Reset()
	}
}
