package tf_test

// A feed on an endpoint the optimizer rewired consumers away from used to be
// silently ignored: the step computed as if nothing had been fed there. It is
// now a compile error naming the endpoint and the pass, in sessions and
// masters alike; without optimizations the same step runs and honours the
// feed. One program per way an endpoint loses its consumers.

import (
	"strings"
	"testing"

	"repro/internal/distributed"
	"repro/tf"
)

type fedInterior struct {
	name  string
	pass  string
	build func(g *tf.Graph) (feeds map[tf.Output]*tf.Tensor, interior, out tf.Output)
	want  []float64 // out with the interior feed honoured
}

var fedInteriors = []fedInterior{
	{
		name: "merged duplicate", pass: "cse", want: []float64{50},
		build: func(g *tf.Graph) (map[tf.Output]*tf.Tensor, tf.Output, tf.Output) {
			x := g.Placeholder("x", tf.Float32, tf.Shape{})
			one := g.Const(float32(1))
			a := g.Add(x, one)
			b := g.Add(x, one)
			out := g.Mul(b, g.Const(float32(10)))
			_ = a // CSE rewires b's consumer onto a; fed 5, b must still reach the Mul
			return map[tf.Output]*tf.Tensor{x: tf.Scalar(0), b: tf.Scalar(5)}, b, out
		},
	},
	{
		name: "MatMul inside a FusedMatMul chain", pass: "fuse", want: []float64{1.5, 0, 3.5, 0},
		build: func(g *tf.Graph) (map[tf.Output]*tf.Tensor, tf.Output, tf.Output) {
			x := g.Placeholder("x", tf.Float32, tf.Shape{2, 3})
			w := g.Const(tf.FromFloat32s(tf.Shape{3, 2}, []float32{1, 0, 0, 1, 1, 1}))
			mm := g.MatMul(x, w)
			out := g.Relu(g.BiasAdd(mm, g.Const([]float32{0.5, -1})))
			return map[tf.Output]*tf.Tensor{
				x:  tf.NewTensor(tf.Float32, tf.Shape{2, 3}),
				mm: tf.FromFloat32s(tf.Shape{2, 2}, []float32{1, -2, 3, 0.5}),
			}, mm, out
		},
	},
	{
		name: "v.Value() under a gather", pass: "sparse-read", want: []float64{30, 31, 10, 11},
		build: func(g *tf.Graph) (map[tf.Output]*tf.Tensor, tf.Output, tf.Output) {
			v := g.NewVariableFromTensor("table", tf.NewTensor(tf.Float32, tf.Shape{4, 2}))
			idx := g.Placeholder("idx", tf.Int32, tf.Shape{2})
			out := g.Gather(v.Value(), idx)
			return map[tf.Output]*tf.Tensor{
				idx:       tf.FromInt32s(tf.Shape{2}, []int32{3, 1}),
				v.Value(): tf.FromFloat32s(tf.Shape{4, 2}, []float32{0, 1, 10, 11, 20, 21, 30, 31}),
			}, v.Value(), out
		},
	},
}

func TestFeedOnRewiredEndpointIsRefused(t *testing.T) {
	spec := distributed.ClusterSpec{"worker": make([]string, 1)}
	runners := map[string]func(g *tf.Graph, optimize bool) stepRunner{
		"session": func(g *tf.Graph, optimize bool) stepRunner {
			sess, err := tf.NewSession(g, tf.SessionOptions{DisableOptimizations: !optimize})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sess.Close)
			return sess.Run
		},
		"master": func(g *tf.Graph, optimize bool) stepRunner {
			return onMaster(t, g, spec, distributed.MasterOptions{DisableOptimizations: !optimize})
		},
	}
	for _, p := range fedInteriors {
		for kind, runner := range runners {
			t.Run(p.name+"/"+kind, func(t *testing.T) {
				g := tf.NewGraph()
				feeds, interior, out := p.build(g)
				_, err := runner(g, true)(feeds, []tf.Output{out})
				if err == nil || !strings.Contains(err.Error(), interior.String()) || !strings.Contains(err.Error(), "the "+p.pass+" pass") {
					t.Errorf("optimized: err = %v; want a compile error naming %v and the %s pass", err, interior, p.pass)
				}

				g = tf.NewGraph()
				feeds, _, out = p.build(g)
				got, err := runner(g, false)(feeds, []tf.Output{out})
				if err != nil {
					t.Fatalf("unoptimized: %v", err)
				}
				for i, w := range p.want {
					if got[0].FloatAt(i) != w {
						t.Errorf("unoptimized: out[%d] = %v, want %v (the fed value, honoured)", i, got[0].FloatAt(i), w)
					}
				}
			})
		}
	}
}
