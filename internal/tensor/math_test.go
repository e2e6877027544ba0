package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specialValues is where float32 and float64 arithmetic could part ways:
// signed zeros, infinities, NaN, both ends of the denormal range, the largest
// finite value, halfway cases of the float32 grid.
func specialValues() []float32 {
	return []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 2, 0.5, 3, 1.0 / 3, 1e-7, 0.99999994,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x00800000), // largest denormal, smallest normal
		math.MaxFloat32, -math.MaxFloat32,
		1 + 1.0/(1<<23), 1 - 1.0/(1<<24), 16777216, 16777215,
	}
}

// operandPairs returns a and b in which every special value meets every
// other one, followed by random bit patterns — mostly ordinary numbers of
// every magnitude, with a few more NaNs and denormals — paired with a
// shuffle of themselves.
func operandPairs(rng *rand.Rand, random int) (a, b []float32) {
	specials := specialValues()
	for _, x := range specials {
		for _, y := range specials {
			a, b = append(a, x), append(b, y)
		}
	}
	tail := make([]float32, random)
	for i := range tail {
		tail[i] = math.Float32frombits(rng.Uint32())
	}
	for i, j := range rng.Perm(random) {
		a, b = append(a, tail[i]), append(b, tail[j])
	}
	return a, b
}

func widen(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
		if i%2 == 1 {
			// Values a float32 cannot hold, so the float64 loops see their
			// own rounding cases too.
			out[i] *= 1 + 1.0/(1<<40)
		}
	}
	return out
}

// sameBits is equality of representation, except that any NaN matches any
// NaN: which payload survives x+y, and whether a signalling NaN that is only
// passed along (Maximum, Neg) comes out quiet, is the instruction's choice
// and differs between one float32 operation and a round trip through
// float64.
func sameBits(got, want float64, dt DType) bool {
	if math.IsNaN(got) && math.IsNaN(want) {
		return true
	}
	if dt == Float32 {
		return math.Float32bits(float32(got)) == math.Float32bits(float32(want))
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// TestTypedLoopsMatchApply pins every loop Binary, Unary, Reduce and
// ReluGrad run in the element type's own arithmetic to what they
// replaced: op.apply on float64, rounded once into the element type. The
// training goldens are bit-for-bit, so this equality is exact.
func TestTypedLoopsMatchApply(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a32, b32 := operandPairs(rng, 10000)
	n := len(a32)
	operands := [][2]*Tensor{
		{FromFloat32s(Shape{n}, a32), FromFloat32s(Shape{n}, b32)},
		{FromFloat64s(Shape{n}, widen(a32)), FromFloat64s(Shape{n}, widen(b32))},
	}
	scalarOf := func(t *Tensor, i int) *Tensor { return ScalarOf(t.dtype, t.FloatAt(i)) }

	t.Run("Reduce", reduceLeadingAxesMatchGeneralLoop)
	for _, ab := range operands {
		a, b := ab[0], ab[1]
		dt := a.dtype
		for op := OpAdd; op <= OpSquaredDifference; op++ {
			check := func(layout string, x, y *Tensor, xi, yi func(i int) int) {
				t.Helper()
				got, err := Binary(New, op, x, y)
				if err != nil {
					t.Fatalf("%v %v %s: %v", dt, op, layout, err)
				}
				bad := 0
				for i := 0; i < got.NumElements(); i++ {
					p, q := x.FloatAt(xi(i)), y.FloatAt(yi(i))
					want := op.apply(p, q)
					if dt == Float32 {
						want = float64(float32(want))
					}
					if !sameBits(got.FloatAt(i), want, dt) {
						if bad++; bad <= 5 {
							t.Errorf("%v %v %s: (%g, %g) = %g, apply gives %g", dt, op, layout, p, q, got.FloatAt(i), want)
						}
					}
				}
			}
			id := func(i int) int { return i }
			zero := func(int) int { return 0 }
			check("same shape", a, b, id, id)
			for _, k := range []int{0, 3, n / 2, n - 1} {
				check(fmt.Sprintf("scalar left (#%d)", k), scalarOf(a, k), b, zero, id)
				check(fmt.Sprintf("scalar right (#%d)", k), a, scalarOf(b, k), id, zero)
			}
			const cols = 7
			rows := n / cols
			mat, row := filled(dt, Shape{rows, cols}, a.FloatAt), filled(dt, Shape{cols}, b.FloatAt)
			check("row broadcast", mat, row, id, func(i int) int { return i % cols })
			check("row broadcast, row first", row, mat, func(i int) int { return i % cols }, id)
		}

		for op := OpNeg; op <= OpReluGradGate; op++ {
			got, err := Unary(New, op, a)
			if err != nil {
				t.Fatalf("%v %v: %v", dt, op, err)
			}
			bad := 0
			for i := 0; i < n; i++ {
				want := op.apply(a.FloatAt(i))
				if dt == Float32 {
					want = float64(float32(want))
				}
				if !sameBits(got.FloatAt(i), want, dt) {
					if bad++; bad <= 5 {
						t.Errorf("%v %v(%g) = %g, apply gives %g", dt, op, a.FloatAt(i), got.FloatAt(i), want)
					}
				}
			}
		}

		// Relu and ReluGrad select with a mask; the form they replaced
		// branched. No arithmetic touches the value, so NaN and −0 are held
		// to the bit as well.
		relu, _ := Unary(New, OpRelu, a)
		grad, err := ReluGrad(New, b, a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			wantRelu, wantGrad := 0.0, 0.0
			if a.FloatAt(i) > 0 {
				wantRelu, wantGrad = a.FloatAt(i), b.FloatAt(i)
			}
			if math.Float64bits(relu.FloatAt(i)) != math.Float64bits(wantRelu) {
				t.Fatalf("%v Relu(%g) = %g, branching form gives %g", dt, a.FloatAt(i), relu.FloatAt(i), wantRelu)
			}
			if math.Float64bits(grad.FloatAt(i)) != math.Float64bits(wantGrad) {
				t.Fatalf("%v ReluGrad(%g, %g) = %g, branching form gives %g", dt, b.FloatAt(i), a.FloatAt(i), grad.FloatAt(i), wantGrad)
			}
		}
	}
}

// filled returns a dt tensor of the given shape holding the leading values.
func filled(dt DType, shape Shape, values func(i int) float64) *Tensor {
	out := New(dt, shape)
	for i := 0; i < out.NumElements(); i++ {
		out.SetFloat(i, values(i))
	}
	return out
}

// reduceLeadingAxesMatchGeneralLoop runs Sum and Mean over a leading block of
// axes — the column-sum path — and the same data with a unit axis in front,
// where the reduced axes no longer lead and the general loop runs. Both add
// an output's rows in ascending order into a float64, so the results must
// agree to the bit on shapes that are not multiples of anything.
func reduceLeadingAxesMatchGeneralLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dt := range []DType{Float32, Float64} {
		for _, rows := range []int{1, 3, 64} {
			for _, cols := range []int{1, 10, 257} {
				// Magnitudes spread over 2^±20, so the order of additions
				// shows in the low bits.
				data := make([]float64, 2*rows*cols)
				for i := range data {
					data[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20)
				}
				for _, c := range []struct {
					shape Shape
					axes  []int
				}{
					{Shape{2 * rows, cols}, []int{0}},
					{Shape{2, rows, cols}, []int{0, 1}},
					{Shape{2, rows, cols}, []int{1, 0}},
					{Shape{2 * rows * cols}, nil},
				} {
					x := filled(dt, c.shape, func(i int) float64 { return data[i] })
					lifted, _ := x.Reshape(append(Shape{1}, c.shape...))
					liftedAxes := make([]int, len(c.shape))
					for i := range liftedAxes {
						liftedAxes[i] = i + 1 // nil axes means all: all but the unit axis
					}
					if c.axes != nil {
						liftedAxes = liftedAxes[:0]
						for _, a := range c.axes {
							liftedAxes = append(liftedAxes, a+1)
						}
					}
					for _, op := range []ReduceOp{ReduceSum, ReduceMean} {
						for _, keep := range []bool{false, true} {
							fast, err := Reduce(New, op, x, c.axes, keep)
							if err != nil {
								t.Fatal(err)
							}
							general, err := Reduce(New, op, lifted, liftedAxes, false)
							if err != nil {
								t.Fatal(err)
							}
							if fast.NumElements() != general.NumElements() {
								t.Fatalf("%v %v%v axes %v: %d outputs, general loop gives %d", dt, op, c.shape, c.axes, fast.NumElements(), general.NumElements())
							}
							for i := 0; i < fast.NumElements(); i++ {
								if math.Float64bits(fast.FloatAt(i)) != math.Float64bits(general.FloatAt(i)) {
									t.Fatalf("%v %v%v axes %v keep=%v: output %d = %g, general loop gives %g", dt, op, c.shape, c.axes, keep, i, fast.FloatAt(i), general.FloatAt(i))
								}
							}
						}
					}
				}
			}
		}
	}
}
