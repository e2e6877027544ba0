package graph

import (
	"slices"
	"strings"
	"sync"
)

// Steps maps step definitions — the feeds, fetches and targets of a Run
// call — to compiled plans, for the local session and the distributed master
// alike (§3.2, §5: the master "prunes and partitions the graph … and caches
// these subgraphs so that they may be re-used in subsequent steps"). It owns
// everything both do before compiling: the pass pipeline, run over the graph
// once before the first compile; the remapping of fetches a pass moved; and
// the refusal of feeds a pass rewired. What a plan is, and how it is built,
// is the caller's compile function. Safe for concurrent use; compiles run
// under its lock, one at a time.
type Steps[P any] struct {
	g       *Graph
	pipe    *Pipeline
	compile func(feeds, fetches []Endpoint, targets []*Node) (P, error)

	mu sync.Mutex
	// opt is what the pipeline did to the graph; nil until the first
	// compile, empty when there is no pipeline.
	opt   *Result
	plans map[string]P
	// last is the most recent definition, so a loop repeating one step pays
	// three slice compares instead of a key build.
	last    stepDef[P]
	hasLast bool
}

type stepDef[P any] struct {
	feeds, fetches []Endpoint
	targets        []*Node
	plan           P
}

// NewSteps creates an empty cache over g. pipe is nil when the caller does
// not optimize. compile receives the feeds and targets as given and the
// fetches remapped through the pipeline's result.
func NewSteps[P any](g *Graph, pipe *Pipeline, compile func(feeds, fetches []Endpoint, targets []*Node) (P, error)) *Steps[P] {
	return &Steps[P]{g: g, pipe: pipe, compile: compile, plans: map[string]P{}}
}

// Get returns the plan for a step definition, compiling it the first time
// the definition is seen. Definitions are keyed in the order given: a plan
// takes its feed values in its feeds' order, so reordered feeds are another
// definition.
func (s *Steps[P]) Get(feeds, fetches []Endpoint, targets []*Node) (P, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasLast && slices.Equal(feeds, s.last.feeds) &&
		slices.Equal(fetches, s.last.fetches) && slices.Equal(targets, s.last.targets) {
		return s.last.plan, nil
	}
	if s.opt == nil {
		s.opt = &Result{}
		if s.pipe != nil {
			// Errors are not fatal: every pass leaves the graph consistent,
			// and the result holds the rewires already made.
			s.opt, _ = s.pipe.Run(s.g)
		}
	}
	remapped := make([]Endpoint, len(fetches))
	for i, f := range fetches {
		remapped[i] = Remap(s.opt.Replaced, f)
	}
	key := stepKey(feeds, remapped, targets)
	plan, ok := s.plans[key]
	if !ok {
		if err := s.opt.CheckFeeds(feeds); err != nil {
			return plan, err
		}
		var err error
		if plan, err = s.compile(feeds, remapped, targets); err != nil {
			return plan, err
		}
		s.plans[key] = plan
	}
	// Copies: callers may reuse their slices.
	s.last.feeds = append(s.last.feeds[:0], feeds...)
	s.last.fetches = append(s.last.fetches[:0], fetches...)
	s.last.targets = append(s.last.targets[:0], targets...)
	s.last.plan, s.hasLast = plan, true
	return plan, nil
}

// stepKey renders a step definition as a map key, feeds in the order given.
func stepKey(feeds, fetches []Endpoint, targets []*Node) string {
	var sb strings.Builder
	for _, f := range feeds {
		sb.WriteString("f:" + f.String() + ";")
	}
	sb.WriteString("|")
	for _, f := range fetches {
		sb.WriteString("o:" + f.String() + ";")
	}
	sb.WriteString("|")
	for _, t := range targets {
		sb.WriteString("t:" + t.Name() + ";")
	}
	return sb.String()
}

// Reset drops every plan and the last definition, so each definition
// compiles again on its next Get, and returns the plans it dropped. The
// pipeline does not run again.
func (s *Steps[P]) Reset() []P {
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := make([]P, 0, len(s.plans))
	for _, p := range s.plans {
		dropped = append(dropped, p)
	}
	clear(s.plans)
	s.last, s.hasLast = stepDef[P]{}, false
	return dropped
}

// Len reports how many definitions have a compiled plan.
func (s *Steps[P]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.plans)
}
