package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// naiveMatMul is the straightforward triple loop used as the reference for
// the packed kernels.
func naiveMatMul(a, b *Tensor, ta, tb bool) *Tensor {
	m, k, n, err := matmulDims(a, b, ta, tb)
	if err != nil {
		panic(err)
	}
	out := New(a.DType(), Shape{m, n})
	at := func(t *Tensor, ld, i, p int, tr bool) float64 {
		if tr {
			return t.FloatAt(p*ld + i)
		}
		return t.FloatAt(i*ld + p)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at(a, a.Shape()[1], i, p, ta) * at(b, b.Shape()[1], p, j, tb)
			}
			out.SetFloat(i*n+j, s)
		}
	}
	return out
}

func randTensor(rng *rand.Rand, dt DType, shape Shape) *Tensor {
	t := New(dt, shape)
	for i := 0; i < t.NumElements(); i++ {
		t.SetFloat(i, rng.NormFloat64())
	}
	return t
}

func TestMatMulPackedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sizes straddle the packed-path thresholds and the panel width, with
	// odd extents to exercise the remainder loops.
	sizes := [][3]int{
		{1, 3, 2}, {5, 17, 9}, {8, 16, 4}, {16, 33, 7},
		{33, 65, 70}, {64, 64, 64}, {50, 40, 130}, {96, 20, 66},
	}
	for _, dt := range []DType{Float32, Float64} {
		tol := 1e-3
		if dt == Float64 {
			tol = 1e-10
		}
		for _, sz := range sizes {
			m, k, n := sz[0], sz[1], sz[2]
			for _, ta := range []bool{false, true} {
				for _, tb := range []bool{false, true} {
					ash := Shape{m, k}
					if ta {
						ash = Shape{k, m}
					}
					bsh := Shape{k, n}
					if tb {
						bsh = Shape{n, k}
					}
					a := randTensor(rng, dt, ash)
					b := randTensor(rng, dt, bsh)
					got, err := MatMul(a, b, ta, tb)
					if err != nil {
						t.Fatalf("MatMul(%v,%v,ta=%t,tb=%t): %v", ash, bsh, ta, tb, err)
					}
					want := naiveMatMul(a, b, ta, tb)
					if !got.AllClose(want, tol, tol) {
						t.Fatalf("MatMul(%v,%v,ta=%t,tb=%t,%v) diverges from naive", ash, bsh, ta, tb, dt)
					}
				}
			}
		}
	}
}

// TestMatMulPackedConcurrentCallers runs products of different sizes, dtypes
// and transposes from many goroutines at once, so the pooled panel / row-copy
// scratch changes hands between callers and sizes. Pooling must not change
// one bit: every result equals the one computed alone beforehand. Run under
// -race, it also checks that no scratch slice is shared while in use.
func TestMatMulPackedConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	type product struct {
		a, b, want *Tensor
		ta, tb     bool
	}
	var products []product
	for i, sz := range [][3]int{{16, 32, 32}, {33, 65, 70}, {8, 16, 4}, {64, 20, 130}, {96, 48, 66}, {12, 100, 9}} {
		m, k, n := sz[0], sz[1], sz[2]
		dt := []DType{Float32, Float64}[i%2]
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				ash, bsh := Shape{m, k}, Shape{k, n}
				if ta {
					ash = Shape{k, m}
				}
				if tb {
					bsh = Shape{n, k}
				}
				p := product{a: randTensor(rng, dt, ash), b: randTensor(rng, dt, bsh), ta: ta, tb: tb}
				want, err := MatMul(p.a, p.b, ta, tb)
				if err != nil {
					t.Fatal(err)
				}
				p.want = want
				products = append(products, p)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				p := products[(g*7+r)%len(products)]
				got, err := MatMul(p.a, p.b, p.ta, p.tb)
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < got.NumElements(); i++ {
					if got.FloatAt(i) != p.want.FloatAt(i) {
						t.Errorf("goroutine %d: %v x %v (ta=%t tb=%t) element %d = %v, alone %v",
							g, p.a.Shape(), p.b.Shape(), p.ta, p.tb, i, got.FloatAt(i), p.want.FloatAt(i))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestMatMulIntoReusesDirtyBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randTensor(rng, Float32, Shape{33, 20})
	b := randTensor(rng, Float32, Shape{20, 9})
	dst := Fill(Float32, Shape{33, 9}, 42) // dirty contents must be ignored
	got, err := MatMulInto(dst, a, b, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != dst {
		t.Fatal("MatMulInto did not write into dst")
	}
	if !got.AllClose(naiveMatMul(a, b, false, false), 1e-4, 1e-4) {
		t.Fatal("MatMulInto into dirty dst diverges from naive")
	}
}

func TestFusedMatMulBias(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dt := range []DType{Float32, Float64} {
		for _, sz := range [][3]int{{3, 5, 7}, {32, 48, 64}, {40, 20, 10}} {
			m, k, n := sz[0], sz[1], sz[2]
			a := randTensor(rng, dt, Shape{m, k})
			b := randTensor(rng, dt, Shape{k, n})
			bias := randTensor(rng, dt, Shape{n})
			for _, relu := range []bool{false, true} {
				got, err := FusedMatMulBias(nil, a, b, bias, false, false, relu)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveMatMul(a, b, false, false)
				for i := 0; i < m*n; i++ {
					v := want.FloatAt(i) + bias.FloatAt(i%n)
					if relu {
						v = math.Max(v, 0)
					}
					want.SetFloat(i, v)
				}
				tol := 1e-3
				if dt == Float64 {
					tol = 1e-10
				}
				if !got.AllClose(want, tol, tol) {
					t.Fatalf("FusedMatMulBias(%v, m=%d k=%d n=%d, relu=%t) diverges", dt, m, k, n, relu)
				}
			}
		}
	}
}

func TestLogSoftmaxExtremeLogits(t *testing.T) {
	// log softmax of [1000, 0] is [~0, -1000]; the old log(softmax(x))
	// form underflowed the second entry to log(0) = -Inf.
	x := FromFloat64s(Shape{1, 2}, []float64{1000, 0})
	got, err := LogSoftmax(x)
	if err != nil {
		t.Fatal(err)
	}
	if v := got.FloatAt(1); math.IsInf(v, -1) || math.Abs(v+1000) > 1e-6 {
		t.Fatalf("LogSoftmax underflowed: got %v, want -1000", v)
	}
	if v := got.FloatAt(0); math.Abs(v) > 1e-6 {
		t.Fatalf("LogSoftmax(1000) = %v, want ~0", v)
	}
}
