package exec_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/device"
	"repro/internal/distributed"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/tf"
)

// The differential test generates small structured programs over a few
// float32 registers — assignments, While loops (nested, with the inner trip
// count read from the outer counter, so some inner loops run zero times) and
// Conds (also inside loop bodies) — builds each as a dataflow graph through
// tf.While / tf.Cond, and checks the executor against a plain Go
// interpretation of the same program. Values captured from enclosing scopes
// (the fed x, outer counters, outer registers) enter the loops as
// loop-invariant Enters; only the first registers are fetched, so loops
// whose results are unused, wholly or in part, are pruned or run with dead
// ends. Every arithmetic step is one float32 operation on both sides, so the
// comparison is exact.
//
// A fixed share of the seeds generates programs without any control flow —
// straight-line ones, and wide ones whose many independent register chains
// meet only at the end, so that several workers deliver into the root
// frame's one iteration at once. Each of those must recycle a buffer, and so
// must a fixed number of the loop programs, or buffer reuse would be bypassed
// instead of tested.

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

type progGen struct {
	rng  *rand.Rand
	flat bool // assignments only
}

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
		case pg.flat:
			out = append(out, pg.assign(depth, false))
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

// wide generates chains independent register chains of random length, in
// random interleaving, and then folds every chain into registers 0 and 1.
func (pg *progGen) wide(chains int) []stmt {
	var out []stmt
	for left := chains * 6; left > 0; left-- {
		k := pg.rng.Intn(chains)
		s := pg.assign(0, false)
		s.dst, s.a = k, operand{kind: 0, idx: k}
		if s.b.kind == 0 {
			s.b = operand{kind: 1}
		}
		out = append(out, s)
	}
	for k := 2; k < chains; k++ {
		out = append(out, stmt{dst: k % 2, op: pg.rng.Intn(2), a: operand{kind: 0, idx: k % 2}, b: operand{kind: 0, idx: k}})
	}
	return out
}

// initial is the value register k holds before the program runs.
func initial(k int, x float32) float32 {
	switch k {
	case 0:
		return x
	case 2:
		return 2
	}
	return x + float32(k)
}

// emit builds prog into a fresh graph (the optimizing paths rewrite theirs)
// and returns the fed x and the fetched registers. With devices, a top-level
// assignment goes to the device of its destination register and the loops
// and Conds are dealt round-robin; each of those stays whole on one device,
// so only live root-frame values cross.
func emit(t *testing.T, prog []stmt, nregs int, devices []string) (*tf.Graph, tf.Output, []tf.Output) {
	t.Helper()
	const fetched = 2
	g := tf.NewGraph()
	x := g.Placeholder("x", tf.Float32, tf.Shape{})
	regs := make([]tf.Output, nregs)
	for k := range regs { // as initial() has them
		switch k {
		case 0:
			regs[k] = x
		case 2:
			regs[k] = g.Const(float32(2))
		default:
			regs[k] = g.Add(x, g.Const(float32(k)))
		}
	}
	if devices == nil {
		regs = build(g, prog, regs, x, nil)
	} else {
		for i, s := range prog {
			d := i
			if s.kind == 0 {
				d = s.dst
			}
			regs = build(g.WithDevice(devices[d%len(devices)]), prog[i:i+1], regs, x, nil)
		}
	}
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	return g, x, regs[:fetched]
}

func unwrap(outs []tf.Output) []graph.Endpoint {
	eps := make([]graph.Endpoint, len(outs))
	for i, o := range outs {
		eps[i] = o.Unwrap()
	}
	return eps
}

func TestExecutorMatchesInterpreter(t *testing.T) {
	const programs, steps = 80, 8
	recyclingLoops := 0
	for seed := int64(1); seed <= programs; seed++ {
		pg := &progGen{rng: rand.New(rand.NewSource(seed))}
		nregs, flat := diffRegs, seed%4 < 2
		var prog []stmt
		switch seed % 4 {
		case 0: // straight-line, ending in r0 += r2; r1 -= r0 so no register is pruned away
			pg.flat = true
			for len(prog) < 8 {
				prog = append(prog, pg.block(0, 0)...)
			}
			prog = append(prog, stmt{dst: 0, op: 0, a: operand{idx: 0}, b: operand{idx: 2}}, stmt{dst: 1, op: 1, a: operand{idx: 1}, b: operand{idx: 0}})
		case 1: // wide
			nregs = 8 + pg.rng.Intn(5)
			prog = pg.wide(nregs)
		default:
			prog = pg.block(0, 3)
		}

		// Each path runs one step on x and returns the fetched registers.
		paths := map[string]func(step int64, x *tensor.Tensor) ([]*tensor.Tensor, error){}

		g, x, regs := emit(t, prog, nregs, nil)
		ex, err := exec.Compile(g.Raw(), []graph.Endpoint{x.Unwrap()}, unwrap(regs), nil, "CPU")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		switch {
		case !flat && ex.PlannedBuffers() > 0:
			recyclingLoops++
		case flat && ex.PlannedBuffers() == 0:
			t.Errorf("seed %d: a program without control flow recycles nothing\n%v", seed, prog)
		}
		rm := device.NewResourceManager()
		paths["exec"] = func(step int64, xv *tensor.Tensor) ([]*tensor.Tensor, error) {
			return ex.Run(exec.RunParams{FeedValues: []*tensor.Tensor{xv}, Resources: rm, StepID: seed*100 + step})
		}

		var sessions []*tf.Session
		for name, opts := range map[string]tf.SessionOptions{"optimized": {}, "unoptimized": {DisableOptimizations: true}} {
			g, x, regs := emit(t, prog, nregs, nil)
			sess, err := tf.NewSession(g, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			sessions = append(sessions, sess)
			paths[name] = func(_ int64, xv *tensor.Tensor) ([]*tensor.Tensor, error) {
				return sess.Run(map[tf.Output]*tf.Tensor{x: xv}, regs)
			}
		}

		spec := distributed.ClusterSpec{"worker": make([]string, 2)}
		mg, mx, mregs := emit(t, prog, nregs, []string{"/job:worker/task:0", "/job:worker/task:1"})
		master, err := distributed.NewMaster(mg.Raw(), spec, distributed.NewInProcCluster(spec).Resolver(), distributed.MasterOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		paths["partitioned"] = func(_ int64, xv *tensor.Tensor) ([]*tensor.Tensor, error) {
			return master.Run(map[graph.Endpoint]*tensor.Tensor{mx.Unwrap(): xv}, unwrap(mregs), nil, nil)
		}

		var wg sync.WaitGroup
		for name, run := range paths {
			for i := 0; i < steps; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					xv := float32(i) - 2.5
					want := make([]float32, nregs)
					for k := range want {
						want[k] = initial(k, xv)
					}
					interpret(prog, want, xv, nil)
					out, err := run(int64(i), tensor.Scalar(xv))
					if err != nil {
						t.Errorf("seed %d %s x=%v: %v", seed, name, xv, err)
						return
					}
					for r, o := range out {
						if got := float32(o.FloatAt(0)); got != want[r] {
							t.Errorf("seed %d %s x=%v: register %d = %v, interpreter says %v\n%s", seed, name, xv, r, got, want[r], fmt.Sprint(prog))
						}
					}
				}(i)
			}
			wg.Wait()
		}
		for _, sess := range sessions {
			sess.Close()
		}
	}
	t.Logf("%d of %d loop programs recycle", recyclingLoops, programs/2)
	if recyclingLoops < 12 {
		t.Errorf("%d loop programs recycle a buffer, want at least 12", recyclingLoops)
	}
}
