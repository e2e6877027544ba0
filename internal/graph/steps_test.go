package graph_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// stepPlan is what the test compile functions build: the definition they
// were handed, numbered in compile order.
type stepPlan struct {
	n              int
	feeds, fetches []graph.Endpoint
}

// countingSteps returns a cache whose compile records its arguments, and the
// number of compiles so far.
func countingSteps(g *graph.Graph, pipe *graph.Pipeline) (*graph.Steps[*stepPlan], func() int) {
	var mu sync.Mutex
	n := 0
	steps := graph.NewSteps(g, pipe, func(feeds, fetches []graph.Endpoint, _ []*graph.Node) (*stepPlan, error) {
		mu.Lock()
		defer mu.Unlock()
		n++
		return &stepPlan{n: n, feeds: slices.Clone(feeds), fetches: slices.Clone(fetches)}, nil
	})
	return steps, func() int { mu.Lock(); defer mu.Unlock(); return n }
}

// twoInputGraph builds a - b over two scalar placeholders.
func twoInputGraph(t *testing.T) (g *graph.Graph, a, b, diff graph.Endpoint) {
	t.Helper()
	g = graph.New()
	ph := func(name string) graph.Endpoint {
		return mustAdd(t, g, "Placeholder", nil, graph.NodeArgs{Name: name, Attrs: map[string]any{
			"dtype": tensor.Float32, "shape": tensor.ScalarShape(),
		}}).Out(0)
	}
	a, b = ph("a"), ph("b")
	return g, a, b, mustAdd(t, g, "Sub", []graph.Endpoint{a, b}, graph.NodeArgs{}).Out(0)
}

func TestStepsCompileOncePerDefinition(t *testing.T) {
	g, a, b, diff := twoInputGraph(t)
	steps, compiles := countingSteps(g, nil)
	get := func(feeds ...graph.Endpoint) *stepPlan {
		t.Helper()
		p, err := steps.Get(feeds, []graph.Endpoint{diff}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	ab := get(a, b)
	if again := get(a, b); again != ab || compiles() != 1 {
		t.Fatalf("repeated definition: plan %d after %d compiles, want plan %d after 1", again.n, compiles(), ab.n)
	}
	// Reordered feeds are another definition: the plan takes its values in
	// its feeds' order.
	ba := get(b, a)
	if ba == ab || compiles() != 2 || !slices.Equal(ba.feeds, []graph.Endpoint{b, a}) {
		t.Fatalf("reordered feeds: plan %d with feeds %v after %d compiles", ba.n, ba.feeds, compiles())
	}
	if again := get(a, b); again != ab || compiles() != 2 {
		t.Fatalf("cached definition compiled again: plan %d after %d compiles", again.n, compiles())
	}
	if steps.Len() != 2 {
		t.Fatalf("Len = %d, want 2", steps.Len())
	}

	// (a, b) is also the last definition: Reset must drop the fast path too.
	steps.Reset()
	if steps.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", steps.Len())
	}
	if p := get(a, b); p == ab || compiles() != 3 {
		t.Fatalf("after Reset: plan %d after %d compiles, want a new plan", p.n, compiles())
	}
}

func TestStepsRemapsFetchesAndRefusesRewiredFeeds(t *testing.T) {
	g, a, b, diff := twoInputGraph(t)
	runs := 0
	// A pass that moves diff onto b, as folding or CSE moves an endpoint.
	pipe := &graph.Pipeline{Passes: []graph.Pass{{Name: "test-rewire", Run: func(_ *graph.Graph, res *graph.Result) error {
		runs++
		res.Replaced[diff] = b
		res.Rewired[diff] = "test-rewire"
		return nil
	}}}}
	steps, compiles := countingSteps(g, pipe)

	p, err := steps.Get([]graph.Endpoint{a, b}, []graph.Endpoint{diff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.fetches, []graph.Endpoint{b}) {
		t.Errorf("compile got fetches %v, want the remapped [%v]", p.fetches, b)
	}
	_, err = steps.Get([]graph.Endpoint{diff}, []graph.Endpoint{a}, nil)
	if err == nil || !strings.Contains(err.Error(), "test-rewire") {
		t.Errorf("feeding a rewired endpoint: err = %v, want one naming the pass", err)
	}
	if runs != 1 || compiles() != 1 {
		t.Errorf("pipeline ran %d times and compile %d times, want 1 and 1", runs, compiles())
	}
}

// TestStepsConcurrentDefinitions alternates two definitions from many
// goroutines, so the fast path's last definition flips under contention.
func TestStepsConcurrentDefinitions(t *testing.T) {
	g, a, b, diff := twoInputGraph(t)
	steps, compiles := countingSteps(g, nil)
	defs := [][]graph.Endpoint{{a, b}, {b, a}}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				feeds := defs[(w+i)%2]
				p, err := steps.Get(slices.Clone(feeds), []graph.Endpoint{diff}, nil)
				if err == nil && !slices.Equal(p.feeds, feeds) {
					err = fmt.Errorf("Get(%v) returned the plan for %v", feeds, p.feeds)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if compiles() != 2 || steps.Len() != 2 {
		t.Errorf("%d compiles, Len %d; want 2 and 2", compiles(), steps.Len())
	}
}
