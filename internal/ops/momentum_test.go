package ops_test

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/build"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// bitsOf is a float tensor's elements as bit patterns, so that == compares
// representations: −0 is not +0 and a NaN's payload counts.
func bitsOf(t *tensor.Tensor) []uint64 {
	out := make([]uint64, t.NumElements())
	for i := range out {
		if t.DType() == tensor.Float32 {
			out[i] = uint64(math.Float32bits(t.Float32s()[i]))
		} else {
			out[i] = math.Float64bits(t.Float64s()[i])
		}
	}
	return out
}

// momentumCase is the data of TestApplyMomentumMatchesUnfusedChain: starting
// values and one gradient per step. The first eight elements never get a
// gradient (a dead unit) and start at or decay into denormals that 0.9·x
// rounds back to themselves; then ±0 in every operand, ±Inf and NaN
// gradients — never a NaN meeting a NaN in an addition, where which payload
// survives is the register allocator's choice — and ordinary values of every
// magnitude.
func momentumCase(dt tensor.DType, n, steps int) (w, vel *tensor.Tensor, grads []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(25))
	tiny := float64(math.SmallestNonzeroFloat32)
	smallNormal := 1e-38
	if dt == tensor.Float64 {
		tiny, smallNormal = math.SmallestNonzeroFloat64, 1e-307
	}
	w, vel = tensor.New(dt, tensor.Shape{n}), tensor.New(dt, tensor.Shape{n})
	spread := func() float64 { return rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20) }
	for i := 0; i < n; i++ {
		w.SetFloat(i, spread())
		vel.SetFloat(i, spread())
	}
	for i, k := range []float64{1, 2, 3, 4, 5, 50, 1e4} {
		vel.SetFloat(i, k*tiny)
	}
	vel.SetFloat(7, smallNormal)
	negZero := math.Copysign(0, -1)
	w.SetFloat(8, 0)
	vel.SetFloat(8, negZero)
	w.SetFloat(9, negZero)
	vel.SetFloat(9, 0)
	for s := 0; s < steps; s++ {
		g := tensor.New(dt, tensor.Shape{n})
		for i := 10; i < n; i++ {
			g.SetFloat(i, spread())
		}
		g.SetFloat(8, negZero) // element 9 keeps +0
		switch s {
		case 3:
			g.SetFloat(12, math.Inf(1))
		case 5:
			g.SetFloat(10, math.Inf(1))
		case 7:
			g.SetFloat(11, math.Inf(-1))
		case 9:
			g.SetFloat(12, math.Inf(-1)) // +Inf velocity − Inf: the default NaN
		case 11:
			g.SetFloat(13, math.NaN())
		}
		grads = append(grads, g)
	}
	return w, vel, grads
}

// TestApplyMomentumMatchesUnfusedChain runs the fused ApplyMomentum and the
// chain optim.Apply emitted before it — Mul, Add, Assign, an Identity ordered
// after the Assign, Mul, AssignSub — side by side for 50 steps, and requires
// the parameter and the velocity of each to agree to the bit after every
// step. The fused op runs twice: on the fed gradient directly, and on one
// computed inside the step (Neg∘Neg is exact), whose buffer is recycled.
func TestApplyMomentumMatchesUnfusedChain(t *testing.T) {
	for _, dt := range []tensor.DType{tensor.Float32, tensor.Float64} {
		t.Run(dt.String(), func(t *testing.T) {
			const n, steps = 64, 50
			w0, vel0, grads := momentumCase(dt, n, steps)
			g := graph.New()
			b := build.New(g)
			shape := tensor.Shape{n}
			grad := b.Node("Placeholder", nil, "grad", map[string]any{"dtype": dt, "shape": shape}).Out(0)
			lr, mu := b.Scalar(dt, 0.05), b.Scalar(dt, 0.9)
			var inits []*graph.Node
			var reads []graph.Endpoint // w, vel of fed, computed, chain
			// pair declares a parameter and its velocity: refs[0], refs[1].
			pair := func(name string) (refs [2]graph.Endpoint) {
				for j, init := range []*tensor.Tensor{w0, vel0} {
					refs[j] = b.Variable(name+[]string{"/w", "/w/momentum"}[j], dt, shape).Out(0)
					inits = append(inits, b.Node("Assign", []graph.Endpoint{refs[j], b.Const(init)}, "", nil))
					reads = append(reads, b.Read(refs[j]))
				}
				return refs
			}
			fedVars, compVars, chainVars := pair("fed"), pair("computed"), pair("chain")
			fed := b.Node("ApplyMomentum", []graph.Endpoint{fedVars[0], fedVars[1], lr, grad, mu}, "", nil)
			computed := b.Node("ApplyMomentum", []graph.Endpoint{compVars[0], compVars[1], lr, b.Neg(b.Neg(grad)), mu}, "", nil)
			newVel := b.Add(b.Mul(b.Read(chainVars[1]), mu), grad)
			setVel := b.Node("Assign", []graph.Endpoint{chainVars[1], newVel}, "", nil)
			ordered := b.Node("Identity", []graph.Endpoint{newVel}, "", nil, setVel).Out(0)
			chain := b.AssignSub(chainVars[0], b.Mul(ordered, lr))
			if err := b.Err(); err != nil {
				t.Fatal(err)
			}

			rm := device.NewResourceManager()
			run := func(feeds []graph.Endpoint, fetches []graph.Endpoint, targets []*graph.Node, values ...*tensor.Tensor) []*tensor.Tensor {
				t.Helper()
				ex, err := exec.Compile(g, feeds, fetches, targets, "CPU")
				if err != nil {
					t.Fatal(err)
				}
				out, err := ex.Run(exec.RunParams{FeedValues: values, Resources: rm})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			run(nil, nil, inits)
			step, err := exec.Compile(g, []graph.Endpoint{grad}, nil, []*graph.Node{fed, computed, chain}, "CPU")
			if err != nil {
				t.Fatal(err)
			}
			if step.PlannedBuffers() == 0 {
				t.Fatal("the computed gradient is not recycled: ApplyMomentum no longer counts as NoRetain")
			}
			var state []*tensor.Tensor
			for s, gv := range grads {
				if _, err := step.Run(exec.RunParams{FeedValues: []*tensor.Tensor{gv}, Resources: rm, StepID: int64(s + 1)}); err != nil {
					t.Fatal(err)
				}
				state = run(nil, reads, nil)
				want := [2][]uint64{bitsOf(state[4]), bitsOf(state[5])}
				for k, variant := range []string{"fed", "computed"} {
					for j, what := range []string{"var", "accum"} {
						got := bitsOf(state[2*k+j])
						for i := range got {
							if got[i] != want[j][i] {
								t.Fatalf("step %d, %s gradient: %s[%d] = %#x (%g), unfused chain gives %#x (%g)",
									s, variant, what, i, got[i], state[2*k+j].FloatAt(i), want[j][i], state[4+j].FloatAt(i))
							}
						}
					}
				}
			}
			// The case covered what it is for: dead units' velocities are
			// denormal and not zero, and the special values came through.
			vel, param := state[1], state[0]
			for i := 0; i < 8; i++ {
				if v := math.Abs(vel.FloatAt(i)); v == 0 || v >= smallestNormal(dt) {
					t.Errorf("velocity %d ends at %g, want a denormal", i, v)
				}
			}
			if !math.Signbit(vel.FloatAt(8)) || !math.Signbit(param.FloatAt(9)) || !math.IsInf(vel.FloatAt(10), 1) ||
				!math.IsInf(vel.FloatAt(11), -1) || !math.IsNaN(vel.FloatAt(12)) || !math.IsNaN(param.FloatAt(13)) {
				t.Errorf("special values did not come through: vel %v, var %v", vel, param)
			}
		})
	}
}

func smallestNormal(dt tensor.DType) float64 {
	if dt == tensor.Float32 {
		return 0x1p-126
	}
	return 0x1p-1022
}

// TestApplyMomentumSnapshotsStayStable runs ApplyMomentum on one variable
// and its velocity from several goroutines while others read both. The op
// writes the velocity in place and hands out the new parameter, so what keeps
// a fetched tensor still is Mutate's copy after a Read: every tensor fetched
// here must still equal the copy made when it arrived. Every step applies the
// same function to (var, accum), so however the steps interleave, the end
// state is that of as many steps run one after another.
func TestApplyMomentumSnapshotsStayStable(t *testing.T) {
	shape := tensor.Shape{8, 16}
	g := graph.New()
	b := build.New(g)
	w := b.Variable("w", tensor.Float32, shape).Out(0)
	vel := b.Variable("w/momentum", tensor.Float32, shape).Out(0)
	rng := tensor.NewRNG(5)
	inits := []*graph.Node{
		b.Node("Assign", []graph.Endpoint{w, b.Const(rng.Normal(tensor.Float32, shape, 0, 1))}, "", nil),
		b.Node("Assign", []graph.Endpoint{vel, b.Const(rng.Normal(tensor.Float32, shape, 0, 1))}, "", nil),
	}
	update := b.Node("ApplyMomentum", []graph.Endpoint{w, vel, b.Scalar(tensor.Float32, 0.05),
		b.Const(rng.Normal(tensor.Float32, shape, 0, 1)), b.Scalar(tensor.Float32, 0.9)}, "", nil)
	readW, readVel := b.Read(w), b.Read(vel)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	compile := func(fetches []graph.Endpoint, targets []*graph.Node) *exec.Executable {
		t.Helper()
		ex, err := exec.Compile(g, nil, fetches, targets, "CPU")
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	var stepID atomic.Int64
	start := func() *device.ResourceManager {
		rm := device.NewResourceManager()
		if _, err := compile(nil, inits).Run(exec.RunParams{Resources: rm, StepID: stepID.Add(1)}); err != nil {
			t.Fatal(err)
		}
		return rm
	}
	step, reads := compile([]graph.Endpoint{update.Out(0)}, nil), compile([]graph.Endpoint{readW, readVel}, nil)

	const goroutinesPerKind, steps = 2, 200
	rm := start()
	var wg sync.WaitGroup
	for _, ex := range []*exec.Executable{step, reads, compile([]graph.Endpoint{readVel}, nil)} {
		for i := 0; i < goroutinesPerKind; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				type snapshot struct{ fetched, copied *tensor.Tensor }
				var held []snapshot
				for s := 0; s < steps; s++ {
					out, err := ex.Run(exec.RunParams{Resources: rm, StepID: stepID.Add(1)})
					if err != nil {
						t.Error(err)
						return
					}
					for _, o := range out {
						held = append(held, snapshot{o, o.Clone()})
					}
				}
				for _, h := range held {
					if !h.fetched.Equal(h.copied) {
						t.Errorf("a fetched tensor changed afterwards: %v, was %v", h.fetched, h.copied)
						return
					}
				}
			}()
		}
	}
	wg.Wait()

	serial := start()
	for s := 0; s < goroutinesPerKind*steps; s++ {
		if _, err := step.Run(exec.RunParams{Resources: serial, StepID: stepID.Add(1)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := reads.Run(exec.RunParams{Resources: rm, StepID: stepID.Add(1)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := reads.Run(exec.RunParams{Resources: serial, StepID: stepID.Add(1)})
	if err != nil {
		t.Fatal(err)
	}
	for i, what := range []string{"var", "accum"} {
		if !got[i].Equal(want[i]) {
			t.Errorf("%s after %d concurrent steps is %v, %d steps in a row give %v", what, goroutinesPerKind*steps, got[i], goroutinesPerKind*steps, want[i])
		}
	}
}

// TestScatterKeepsInt64Exact writes integers past 2⁵³ through every in-place
// integer writer: each must work in the variable's own arithmetic, not round
// through float64 (where 2⁵³ + 1 is 2⁵³).
func TestScatterKeepsInt64Exact(t *testing.T) {
	const big = int64(1) << 53
	g := graph.New()
	b := build.New(g)
	i64 := func(shape tensor.Shape, v ...int64) graph.Endpoint { return b.Const(tensor.FromInt64s(shape, v)) }
	table := b.Variable("table", tensor.Int64, tensor.Shape{2, 2}).Out(0)
	counter := b.Variable("counter", tensor.Int64, tensor.ScalarShape()).Out(0)
	inits := []*graph.Node{
		b.Node("Assign", []graph.Endpoint{table, i64(tensor.Shape{2, 2}, big, big, -big, 7)}, "", nil),
		b.Node("Assign", []graph.Endpoint{counter, i64(tensor.ScalarShape(), big)}, "", nil),
	}
	row := func(r int32) graph.Endpoint { return b.Const(tensor.FromInt32s(tensor.Shape{1}, []int32{r})) }
	scatterAdd := b.Node("ScatterAdd", []graph.Endpoint{table, row(0), i64(tensor.Shape{1, 2}, 1, 3)}, "", nil)
	scatterSub := b.Node("ScatterSub", []graph.Endpoint{table, row(1), i64(tensor.Shape{1, 2}, 1, 1)}, "", nil)
	scatterUpdate := b.Node("ScatterUpdate", []graph.Endpoint{table, row(1), i64(tensor.Shape{1, 2}, 1<<62+1, -big-1)}, "", nil)
	count := b.Node("CountUpTo", []graph.Endpoint{counter}, "", map[string]any{"limit": int64(1) << 60})
	readTable, readCounter := b.Read(table), b.Read(counter)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	rm := device.NewResourceManager()
	run := func(fetches []graph.Endpoint, targets ...*graph.Node) []*tensor.Tensor {
		t.Helper()
		ex, err := exec.Compile(g, nil, fetches, targets, "CPU")
		if err != nil {
			t.Fatal(err)
		}
		out, err := ex.Run(exec.RunParams{Resources: rm})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	run(nil, inits...)
	for _, c := range []struct {
		name string
		op   *graph.Node
		want []int64
	}{
		{"ScatterAdd", scatterAdd, []int64{big + 1, big + 3, -big, 7}},
		{"ScatterSub", scatterSub, []int64{big + 1, big + 3, -big - 1, 6}},
		{"ScatterUpdate", scatterUpdate, []int64{big + 1, big + 3, 1<<62 + 1, -big - 1}},
	} {
		run(nil, c.op)
		got := run([]graph.Endpoint{readTable})[0].Int64s()
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("after %s the table is %v, want %v", c.name, got, c.want)
			}
		}
	}
	if out := run([]graph.Endpoint{count.Out(0)})[0].Int64s()[0]; out != big {
		t.Errorf("CountUpTo returned %d, want %d", out, big)
	}
	if now := run([]graph.Endpoint{readCounter})[0].Int64s()[0]; now != big+1 {
		t.Errorf("CountUpTo left the counter at %d, want %d", now, big+1)
	}
}
