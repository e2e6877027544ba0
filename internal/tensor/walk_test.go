package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The per-element decoders walk replaced — flat index → multi-index →
// operand offset, one division and one remainder per dimension and element —
// kept as the reference the strided kernels are held to.

// refBroadcastIndex maps flat output indices to flat input indices for a
// shape broadcast into out.
func refBroadcastIndex(in, out Shape) func(flat int) int {
	r := len(out)
	inStride, outStride, inStrides := make([]int, r), out.Strides(), in.Strides()
	for i := 0; i < r; i++ {
		if inDim := i - (r - len(in)); inDim >= 0 && in[inDim] != 1 {
			inStride[i] = inStrides[inDim]
		}
	}
	return func(flat int) int {
		off, rem := 0, flat
		for i := 0; i < r; i++ {
			idx := rem / outStride[i]
			rem %= outStride[i]
			off += idx * inStride[i]
		}
		return off
	}
}

func refBinary(op BinaryOp, a, b *Tensor) *Tensor {
	shape, _ := BroadcastShapes(a.shape, b.shape)
	out := New(a.dtype, shape)
	ia, ib := refBroadcastIndex(a.shape, shape), refBroadcastIndex(b.shape, shape)
	for i := 0; i < out.NumElements(); i++ {
		out.SetFloat(i, op.apply(a.FloatAt(ia(i)), b.FloatAt(ib(i))))
	}
	return out
}

func refCompare(op CompareOp, a, b *Tensor) *Tensor {
	shape, _ := BroadcastShapes(a.shape, b.shape)
	out := New(Bool, shape)
	ia, ib := refBroadcastIndex(a.shape, shape), refBroadcastIndex(b.shape, shape)
	for i := range out.Bools() {
		out.Bools()[i] = op.Apply(a.FloatAt(ia(i)), b.FloatAt(ib(i)))
	}
	return out
}

func refSelect(cond, a, b *Tensor) *Tensor {
	out := New(a.dtype, a.shape)
	ic := refBroadcastIndex(cond.shape, a.shape)
	for i := 0; i < out.NumElements(); i++ {
		if cond.Bools()[ic(i)] {
			out.SetFloat(i, a.FloatAt(i))
		} else {
			out.SetFloat(i, b.FloatAt(i))
		}
	}
	return out
}

// refReduce is Reduce's general loop: each input's output index by dropping
// the reduced dimensions, a float64 accumulator per output.
func refReduce(op ReduceOp, t *Tensor, axes []int, keepDims bool) *Tensor {
	norm, _ := normalizeAxes(axes, t.Rank())
	reduced := make([]bool, t.Rank())
	for _, a := range norm {
		reduced[a] = true
	}
	outShape, keptShape := Shape{}, Shape{}
	for i, d := range t.shape {
		if !reduced[i] {
			outShape, keptShape = append(outShape, d), append(keptShape, d)
		} else if keepDims {
			outShape = append(outShape, 1)
		}
	}
	out := New(t.dtype, outShape)
	if t.NumElements() == 0 {
		return out
	}
	init := map[ReduceOp]float64{ReduceMax: math.Inf(-1), ReduceMin: math.Inf(1), ReduceProd: 1}[op]
	acc, counts := make([]float64, out.NumElements()), make([]int, out.NumElements())
	for i := range acc {
		acc[i] = init
	}
	inStrides, keptStrides := t.shape.Strides(), keptShape.Strides()
	for i := 0; i < t.NumElements(); i++ {
		rem, o, kd := i, 0, 0
		for d := range t.shape {
			idx := rem / inStrides[d]
			rem %= inStrides[d]
			if !reduced[d] {
				o += idx * keptStrides[kd]
				kd++
			}
		}
		switch v := t.FloatAt(i); op {
		case ReduceSum, ReduceMean:
			acc[o] += v
		case ReduceMax:
			if v > acc[o] {
				acc[o] = v
			}
		case ReduceMin:
			if v < acc[o] {
				acc[o] = v
			}
		case ReduceProd:
			acc[o] *= v
		}
		counts[o]++
	}
	for i, v := range acc {
		if op == ReduceMean {
			v /= float64(counts[i])
		}
		out.SetFloat(i, v)
	}
	return out
}

// refReduceGrad is SumGrad/MeanGrad's kernel loop.
func refReduceGrad(g *Tensor, shape Shape, reduced []bool, scale float64) *Tensor {
	keptShape := Shape{}
	for i, d := range shape {
		if !reduced[i] {
			keptShape = append(keptShape, d)
		}
	}
	out := New(g.dtype, shape)
	inStrides, keptStrides := shape.Strides(), keptShape.Strides()
	for i := 0; i < out.NumElements(); i++ {
		rem, gIdx, kd := i, 0, 0
		for d := range shape {
			idx := rem / inStrides[d]
			rem %= inStrides[d]
			if !reduced[d] {
				gIdx += idx * keptStrides[kd]
				kd++
			}
		}
		out.SetFloat(i, g.FloatAt(gIdx)*scale)
	}
	return out
}

// refLayout builds an out-shaped tensor whose element i is t's element
// src(multi-index of i), or zero where src reports -1.
func refLayout(t *Tensor, out Shape, src func(idx []int) int) *Tensor {
	res := New(t.dtype, out)
	strides := out.Strides()
	idx := make([]int, len(out))
	for i := 0; i < res.NumElements(); i++ {
		rem := i
		for d := range out {
			idx[d] = rem / strides[d]
			rem %= strides[d]
		}
		if s := src(idx); s >= 0 {
			res.SetFloat(i, t.FloatAt(s))
		}
	}
	return res
}

func refTranspose(t *Tensor, perm []int) *Tensor {
	out := make(Shape, len(perm))
	for d, p := range perm {
		out[d] = t.shape[p]
	}
	strides := t.shape.Strides()
	return refLayout(t, out, func(idx []int) int {
		off := 0
		for d, p := range perm {
			off += idx[d] * strides[p]
		}
		return off
	})
}

func refSlice(t *Tensor, begin, size []int) *Tensor {
	out := make(Shape, len(size))
	for d, s := range size {
		if out[d] = s; s < 0 {
			out[d] = t.shape[d] - begin[d]
		}
	}
	strides := t.shape.Strides()
	return refLayout(t, out, func(idx []int) int {
		off := 0
		for d, i := range idx {
			off += (i + begin[d]) * strides[d]
		}
		return off
	})
}

func refPad(t *Tensor, paddings [][2]int) *Tensor {
	out := make(Shape, len(paddings))
	for d, p := range paddings {
		out[d] = t.shape[d] + p[0] + p[1]
	}
	strides := t.shape.Strides()
	return refLayout(t, out, func(idx []int) int {
		off := 0
		for d, i := range idx {
			if i -= paddings[d][0]; i < 0 || i >= t.shape[d] {
				return -1
			}
			off += i * strides[d]
		}
		return off
	})
}

func refTile(t *Tensor, multiples []int) *Tensor {
	out := make(Shape, len(multiples))
	for d, m := range multiples {
		out[d] = t.shape[d] * m
	}
	strides := t.shape.Strides()
	return refLayout(t, out, func(idx []int) int {
		off := 0
		for d, i := range idx {
			off += (i % t.shape[d]) * strides[d]
		}
		return off
	})
}

// walkShapes are ranks 0–4 with size-1 dimensions at the front, in the
// middle and at the back, and a zero-size dimension.
var walkShapes = []Shape{
	{}, {1}, {5}, {0}, {3, 4}, {1, 4}, {3, 1}, {1, 3, 4}, {2, 1, 3}, {3, 4, 1},
	{2, 0, 3}, {2, 3, 4, 5}, {1, 2, 1, 3}, {2, 3, 1, 1}, {4, 1, 1, 3},
}

// squeezes returns the shapes that broadcast to s: every subset of its
// dimensions set to 1, each also with its leading 1s dropped.
func squeezes(s Shape) []Shape {
	var out []Shape
	for mask := 0; mask < 1<<len(s); mask++ {
		q := s.Clone()
		for d := range q {
			if mask&(1<<d) != 0 {
				q[d] = 1
			}
		}
		out = append(out, q)
		lead := 0
		for lead < len(q) && q[lead] == 1 {
			lead++
		}
		if lead > 0 {
			out = append(out, q[lead:])
		}
	}
	return out
}

// subsets is every subset of [0, rank) as an axis list.
func subsets(rank int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<rank; mask++ {
		var axes []int
		for d := 0; d < rank; d++ {
			if mask&(1<<d) != 0 {
				axes = append(axes, d)
			}
		}
		out = append(out, axes)
	}
	return out
}

// choices is the cartesian product of per-dimension options.
func choices[T any](rank int, opts func(d int) []T) [][]T {
	out := [][]T{{}}
	for d := 0; d < rank; d++ {
		var next [][]T
		for _, prefix := range out {
			for _, o := range opts(d) {
				next = append(next, append(append([]T{}, prefix...), o))
			}
		}
		out = next
	}
	return out
}

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

// sameTensor compares dtype, shape and every element's bits.
func sameTensor(got, want *Tensor) error {
	if got.dtype != want.dtype || !got.shape.Equal(want.shape) {
		return fmt.Errorf("got %v%v, want %v%v", got.dtype, got.shape, want.dtype, want.shape)
	}
	for i := 0; i < got.NumElements(); i++ {
		var g, w any
		switch got.dtype {
		case Bool:
			g, w = got.Bools()[i], want.Bools()[i]
		case Float32, Float64:
			g, w = math.Float64bits(got.FloatAt(i)), math.Float64bits(want.FloatAt(i))
		default:
			g, w = got.FloatAt(i), want.FloatAt(i)
		}
		if g != w {
			return fmt.Errorf("element %d: got %v (%v), want %v (%v)", i, got.FloatAt(i), g, want.FloatAt(i), w)
		}
	}
	return nil
}

// TestWalkMatchesIndexDecode holds every kernel routed through walk to the
// per-element decoder it replaced, bit for bit, in all four numeric dtypes.
func TestWalkMatchesIndexDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	dtypes := []DType{Float32, Float64, Int32, Int64}
	random := func(dt DType, s Shape) *Tensor {
		return filled(dt, s, func(int) float64 {
			if dt.IsFloat() {
				return rng.NormFloat64() * math.Ldexp(1, rng.Intn(21)-10)
			}
			return float64(rng.Intn(9) + 1) // integer Div and Pow stay defined
		})
	}
	check := func(what string, got *Tensor, err error, want *Tensor) {
		t.Helper()
		if err == nil {
			err = sameTensor(got, want)
		}
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	for _, dt := range dtypes {
		for _, s := range walkShapes {
			shapes := squeezes(s)
			for _, as := range shapes {
				a := random(dt, as)
				for _, bs := range shapes {
					b := random(dt, bs)
					for _, op := range []BinaryOp{OpSub, OpMul, OpDiv, OpMaximum, OpPow} {
						got, err := Binary(op, a, b)
						check(fmt.Sprintf("%v %v(%v, %v)", dt, op, as, bs), got, err, refBinary(op, a, b))
					}
					got, err := Compare(CmpLess, a, b)
					check(fmt.Sprintf("%v Less(%v, %v)", dt, as, bs), got, err, refCompare(CmpLess, a, b))
				}
				cond := New(Bool, as)
				for i := range cond.Bools() {
					cond.Bools()[i] = rng.Intn(2) == 0
				}
				x, y := random(dt, s), random(dt, s)
				got, err := Select(cond, x, y)
				check(fmt.Sprintf("%v Select(%v, %v)", dt, as, s), got, err, refSelect(cond, x, y))
			}

			x := random(dt, s)
			for _, axes := range subsets(len(s)) {
				for _, keep := range []bool{false, true} {
					for op := ReduceSum; op <= ReduceProd; op++ {
						got, err := Reduce(op, x, axes, keep)
						check(fmt.Sprintf("%v %v%v axes %v keep=%v", dt, op, s, axes, keep), got, err, refReduce(op, x, axes, keep))
					}
				}
				reduced, kept := make([]bool, len(s)), Shape{}
				for _, d := range axes {
					reduced[d] = true
				}
				for d, r := range reduced {
					if !r {
						kept = append(kept, s[d])
					}
				}
				g := random(dt, kept)
				for _, scale := range []float64{1, 1.0 / 3} {
					got, err := ReduceGrad(g, s, reduced, scale)
					check(fmt.Sprintf("%v ReduceGrad %v axes %v scale %g", dt, s, axes, scale), got, err, refReduceGrad(g, s, reduced, scale))
				}
			}
			for _, perm := range permutations(len(s)) {
				got, err := Transpose(x, perm)
				check(fmt.Sprintf("%v Transpose%v %v", dt, s, perm), got, err, refTranspose(x, perm))
			}
			for _, bs := range choices(len(s), func(d int) [][2]int {
				o := [][2]int{{0, -1}, {0, s[d]}}
				if s[d] > 0 {
					o = append(o, [2]int{1, s[d] - 1}, [2]int{s[d] / 2, 1})
				}
				return o
			}) {
				begin, size := make([]int, len(bs)), make([]int, len(bs))
				for d, b := range bs {
					begin[d], size[d] = b[0], b[1]
				}
				got, err := SliceT(x, begin, size)
				check(fmt.Sprintf("%v Slice%v %v %v", dt, s, begin, size), got, err, refSlice(x, begin, size))
			}
			for _, pads := range choices(len(s), func(int) [][2]int { return [][2]int{{0, 0}, {1, 0}, {0, 2}, {1, 1}} }) {
				got, err := Pad(x, pads)
				check(fmt.Sprintf("%v Pad%v %v", dt, s, pads), got, err, refPad(x, pads))
			}
			for _, mult := range choices(len(s), func(int) []int { return []int{1, 2, 3} }) {
				got, err := Tile(x, mult)
				check(fmt.Sprintf("%v Tile%v %v", dt, s, mult), got, err, refTile(x, mult))
			}
		}
	}

	// A [3,1] input padded on its unit dimension: the walk's run is the
	// column, written to the output at a step of the output's row length.
	x := FromFloat32s(Shape{3, 1}, []float32{1, 2, 3})
	got, err := Pad(x, [][2]int{{1, 0}, {1, 2}})
	check("Pad[3,1]", got, err, FromFloat32s(Shape{4, 4}, []float32{0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0}))
}

// BenchmarkWalk times the layout and broadcast kernels at the sizes the
// training workloads run them.
func BenchmarkWalk(b *testing.B) {
	rng := NewRNG(1)
	x := rng.Normal(Float32, Shape{256, 64}, 0, 1)
	row, col := rng.Normal(Float32, Shape{64}, 0, 1), rng.Normal(Float32, Shape{256, 1}, 0, 1)
	cube := rng.Normal(Float32, Shape{16, 32, 64}, 0, 1)
	logits := rng.Normal(Float32, Shape{64, 10}, 0, 1)
	cases := []struct {
		name string
		f    func() (*Tensor, error)
	}{
		{"AddRow[256,64]", func() (*Tensor, error) { return Binary(OpAdd, x, row) }},
		{"AddCol[256,64]", func() (*Tensor, error) { return Binary(OpAdd, x, col) }},
		{"SumMiddle[16,32,64]", func() (*Tensor, error) { return Reduce(ReduceSum, cube, []int{1}, false) }},
		{"MeanGrad[16,32]", func() (*Tensor, error) {
			return ReduceGrad(Scalar(1), Shape{16, 32}, []bool{true, true}, 1.0/512)
		}},
		{"Transpose[256,64]", func() (*Tensor, error) { return Transpose(x, nil) }},
		{"Tile[64,10]x[4,1]", func() (*Tensor, error) { return Tile(logits, []int{4, 1}) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
