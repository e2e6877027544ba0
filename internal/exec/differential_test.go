package exec_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/tf"
)

// The differential test generates small structured programs over a few
// float32 registers — assignments, While loops (nested, with the inner trip
// count read from the outer counter, so some inner loops run zero times) and
// Conds (also inside loop bodies) — builds each as a dataflow graph through
// tf.While / tf.Cond, and checks the frame-aware executor against a plain Go
// interpretation of the same program. Values captured from enclosing scopes
// (the fed x, outer counters, outer registers) enter the loops as
// loop-invariant Enters; only the first registers are fetched, so loops
// whose results are unused, wholly or in part, are pruned or run with dead
// ends. Every arithmetic step is one float32 operation on both sides, so the
// comparison is exact.

const diffRegs = 3

// operand names a value an assignment, predicate or trip count can read.
type operand struct {
	kind int // 0 register, 1 the fed x, 2 loop counter at depth idx, 3 constant
	idx  int
	c    float32
}

type stmt struct {
	kind int // 0 assign, 1 while, 2 cond

	dst, op int // assign: regs[dst] = a op b  (0 add, 1 sub, 2 mul)
	a, b    operand

	limit   operand // while: for i := 0; i < limit; i++ { body }
	discard bool    // while: the loop's results are dropped

	body, els []stmt // while: body; cond: then / else under a < b
}

type progGen struct{ rng *rand.Rand }

// operand picks a readable value; inBranch restricts it to registers, since a
// Cond branch may only compute from the values the Cond switched.
func (pg *progGen) operand(depth int, inBranch bool) operand {
	switch k := pg.rng.Intn(4); {
	case inBranch || k == 0:
		return operand{kind: 0, idx: pg.rng.Intn(diffRegs)}
	case k == 1:
		return operand{kind: 1}
	case k == 2 && depth > 0:
		return operand{kind: 2, idx: pg.rng.Intn(depth)}
	default:
		return operand{kind: 3, c: float32(pg.rng.Intn(5)) - 1.5}
	}
}

func (pg *progGen) assign(depth int, inBranch bool) stmt {
	s := stmt{dst: pg.rng.Intn(diffRegs), op: pg.rng.Intn(3), a: pg.operand(depth, true), b: pg.operand(depth, inBranch)}
	if s.op == 2 { // keep magnitudes bounded: multiply only by a small constant
		s.b = operand{kind: 3, c: []float32{0.5, -0.5, 0.25}[pg.rng.Intn(3)]}
	}
	return s
}

func (pg *progGen) block(depth, budget int) []stmt {
	var out []stmt
	for n := 1 + pg.rng.Intn(3); n > 0; n-- {
		switch k := pg.rng.Intn(6); {
		case k <= 1 && depth < 3 && budget > 0:
			w := stmt{kind: 1, discard: pg.rng.Intn(5) == 0, limit: operand{kind: 3, c: float32(pg.rng.Intn(4))}}
			if depth > 0 && pg.rng.Intn(2) == 0 {
				w.limit = operand{kind: 2, idx: depth - 1} // trip count = the enclosing loop's counter
			}
			w.body = pg.block(depth+1, budget-1)
			out = append(out, w)
		case k == 2:
			c := stmt{kind: 2, a: pg.operand(depth, false), b: pg.operand(depth, false)}
			for n := 1 + pg.rng.Intn(2); n > 0; n-- {
				c.body = append(c.body, pg.assign(depth, true))
				c.els = append(c.els, pg.assign(depth, true))
			}
			out = append(out, c)
		default:
			out = append(out, pg.assign(depth, false))
		}
	}
	return out
}

func arith(op int, a, b float32) float32 {
	switch op {
	case 0:
		return a + b
	case 1:
		return a - b
	}
	return a * b
}

// interpret runs stmts on regs in plain Go.
func interpret(stmts []stmt, regs []float32, x float32, counters []float32) {
	val := func(o operand) float32 {
		switch o.kind {
		case 0:
			return regs[o.idx]
		case 1:
			return x
		case 2:
			return counters[o.idx]
		}
		return o.c
	}
	for _, s := range stmts {
		switch s.kind {
		case 0:
			regs[s.dst] = arith(s.op, val(s.a), val(s.b))
		case 1:
			inner := regs
			if s.discard {
				inner = append([]float32(nil), regs...)
			}
			limit := val(s.limit)
			for i := float32(0); i < limit; i++ {
				interpret(s.body, inner, x, append(counters[:len(counters):len(counters)], i))
			}
		case 2:
			if val(s.a) < val(s.b) {
				interpret(s.body, regs, x, counters)
			} else {
				interpret(s.els, regs, x, counters)
			}
		}
	}
}

// build emits stmts into g, threading the registers through as outputs.
func build(g *tf.Graph, stmts []stmt, regs []tf.Output, x tf.Output, counters []tf.Output) []tf.Output {
	regs = append([]tf.Output(nil), regs...)
	val := func(o operand) tf.Output {
		switch o.kind {
		case 0:
			return regs[o.idx]
		case 1:
			return x
		case 2:
			return counters[o.idx]
		}
		return g.Const(o.c)
	}
	for _, s := range stmts {
		switch s.kind {
		case 0:
			a, b := val(s.a), val(s.b)
			regs[s.dst] = []func(x, y tf.Output) tf.Output{g.Add, g.Sub, g.Mul}[s.op](a, b)
		case 1:
			limit := val(s.limit)
			outs := g.While(append([]tf.Output{g.Const(float32(0))}, regs...), nil,
				func(vars, _ []tf.Output) tf.Output { return g.Less(vars[0], limit) },
				func(vars, _ []tf.Output) []tf.Output {
					inner := build(g, s.body, vars[1:], x, append(counters[:len(counters):len(counters)], vars[0]))
					return append([]tf.Output{g.Add(vars[0], g.Const(float32(1)))}, inner...)
				})
			if !s.discard && len(outs) == len(regs)+1 {
				regs = append([]tf.Output(nil), outs[1:]...)
			}
		case 2:
			regs = g.Cond(g.Less(val(s.a), val(s.b)), regs,
				func(ins []tf.Output) []tf.Output { return build(g, s.body, ins, x, counters) },
				func(ins []tf.Output) []tf.Output { return build(g, s.els, ins, x, counters) })
		}
	}
	return regs
}

func TestFramePathMatchesInterpreter(t *testing.T) {
	const programs, steps, fetched = 40, 8, 2
	for seed := int64(1); seed <= programs; seed++ {
		pg := &progGen{rng: rand.New(rand.NewSource(seed))}
		prog := pg.block(0, 3)
		g := tf.NewGraph()
		x := g.Placeholder("x", tf.Float32, tf.Shape{})
		regs := build(g, prog, []tf.Output{x, g.Add(x, g.Const(float32(1))), g.Const(float32(2))}, x, nil)
		if err := g.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var fetches []graph.Endpoint
		for _, r := range regs[:fetched] {
			fetches = append(fetches, r.Unwrap())
		}
		ex, err := exec.Compile(g.Raw(), []graph.Endpoint{x.Unwrap()}, fetches, nil, "CPU")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rm := device.NewResourceManager()
		var wg sync.WaitGroup
		for i := 0; i < steps; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				xv := float32(i) - 2.5
				want := []float32{xv, xv + 1, 2}
				interpret(prog, want, xv, nil)
				out, err := ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{tensor.Scalar(xv)}, Resources: rm, StepID: seed*100 + int64(i)})
				if err != nil {
					t.Errorf("seed %d x=%v: %v", seed, xv, err)
					return
				}
				for r, o := range out {
					if got := float32(o.FloatAt(0)); got != want[r] {
						t.Errorf("seed %d x=%v: register %d = %v, interpreter says %v\n%s", seed, xv, r, got, want[r], fmt.Sprint(prog))
					}
				}
			}(i)
		}
		wg.Wait()
	}
}
