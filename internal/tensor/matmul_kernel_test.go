package tensor

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// The tests in this file hold every way a matrix product can be computed —
// the tile path under the Go micro-kernel, under each assembly kernel the CPU
// can run (AVX2, AVX-512; TestAssemblyKernelsAreInstalled checks which one
// init selected), the row kernels of the small path — to the tileKernel
// contract, bit for bit.

// refMatMul is the contract written out: each element is the in-order sum,
// from +0, of separately rounded products.
func refMatMul[T float32 | float64](a, b []T, m, k, n, lda, ldb int, ta, tb bool) []T {
	out := make([]T, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s T
			for p := 0; p < k; p++ {
				ai, bi := i*lda+p, p*ldb+j
				if ta {
					ai = p*lda + i
				}
				if tb {
					bi = j*ldb + p
				}
				s = T(s + T(a[ai]*b[bi]))
			}
			out[i*n+j] = s
		}
	}
	return out
}

// refEpilogue returns a copy of the [m,n] product with the bias row added and
// then ReLU ("v < 0 → 0") applied.
func refEpilogue[T float32 | float64](product []T, n int, bias []T, relu bool) []T {
	out := append([]T(nil), product...)
	for i, v := range out {
		if bias != nil {
			v = T(v + bias[i%n])
		}
		if relu && v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out
}

func isFloat32[T float32 | float64]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

func floatBits[T float32 | float64](v T) uint64 {
	if isFloat32[T]() {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// firstBitDiff returns the first index at which got and want differ in their
// bits, or -1. Two NaNs are equal whatever their payloads: which operand's
// payload an instruction keeps is not part of the contract.
func firstBitDiff[T float32 | float64](got, want []T) int {
	for i := range want {
		if floatBits(got[i]) != floatBits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
			return i
		}
	}
	return -1
}

// splitmix is a fixed generator, so that inputs (and the committed digest)
// depend on nothing but this file.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// fill sets every element to a 24-bit fixed-point value in [-8, 8), exact in
// both dtypes, so products and sums round in many different ways. With
// specials, about one element in eight is instead a NaN, an infinity, a
// negative zero, a denormal or a value near the largest finite one.
func fill[T float32 | float64](rng *splitmix, v []T, specials bool) {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64/4
	if isFloat32[T]() {
		tiny, huge = math.SmallestNonzeroFloat32, math.MaxFloat32/4
	}
	special := []T{T(math.NaN()), T(math.Inf(1)), T(math.Inf(-1)), T(math.Copysign(0, -1)),
		T(tiny), T(-3 * tiny), T(huge), T(-huge)}
	for i := range v {
		r := rng.next()
		v[i] = T(int64(r>>40)-1<<23) / (1 << 20)
		if specials && r&7 == 0 {
			v[i] = special[r>>3&7]
		}
	}
}

type kernelCase[T float32 | float64] struct {
	name string
	kern tileKernel[T]
}

// asmKernel is one assembly implementation of tileKernel in both dtypes.
type asmKernel struct {
	name string
	f32  tileKernel[float32]
	f64  tileKernel[float64]
}

// kernelCases lists every tileKernel this CPU can run: kernelGo and each
// assembly pair asmKernels finds runnable, so that a narrower kernel stays
// under test on a CPU whose init installs a wider one.
func kernelCases[T float32 | float64]() []kernelCase[T] {
	cases := []kernelCase[T]{{"go", kernelGo[T]}}
	for _, ak := range asmKernels() {
		var kern any = ak.f64
		if isFloat32[T]() {
			kern = ak.f32
		}
		cases = append(cases, kernelCase[T]{ak.name, kern.(tileKernel[T])})
	}
	return cases
}

// operands builds op(A) [m,k] and op(B) [k,n] in the requested layouts and
// returns them with their leading dimensions.
func operands[T float32 | float64](rng *splitmix, m, k, n int, ta, tb, specials bool) (a, b []T, lda, ldb int) {
	a, b = make([]T, m*k), make([]T, k*n)
	fill(rng, a, specials)
	fill(rng, b, specials)
	lda, ldb = k, n
	if ta {
		lda = m
	}
	if tb {
		ldb = k
	}
	return a, b, lda, ldb
}

func testMatMulBitwise[T float32 | float64](t *testing.T, pool *sync.Pool) {
	nr := tileNR[T]()
	dims := []int{1, tileMR - 1, tileMR, tileMR + 1, nr - 1, nr, nr + 1, 2*nr + 3, 70, 130}
	ks := []int{0, 1, 15, 16, 17, 257}
	if testing.Short() {
		dims, ks = []int{1, tileMR + 1, nr - 1, 2*nr + 3}, []int{0, 3, 17}
	}
	rng := splitmix(1)
	for _, m := range dims {
		for _, n := range dims {
			for _, k := range ks {
				for c := 0; c < 8; c++ {
					ta, tb, specials := c&1 != 0, c&2 != 0, c&4 != 0
					a, b, lda, ldb := operands[T](&rng, m, k, n, ta, tb, specials)
					bias := make([]T, n)
					fill(&rng, bias, specials)
					product := refMatMul(a, b, m, k, n, lda, ldb, ta, tb)
					for e := 0; e < 4; e++ {
						var bv []T
						if e&1 != 0 {
							bv = bias
						}
						relu := e&2 != 0
						want := refEpilogue(product, n, bv, relu)
						for _, kc := range kernelCases[T]() {
							got := make([]T, m*n)
							fill(&rng, got, true) // dirty: every element must be overwritten
							matmul(pool, kc.kern, got, a, b, m, k, n, lda, ldb, ta, tb, bv, relu)
							if i := firstBitDiff(got, want); i >= 0 {
								t.Fatalf("%s kernel, %dx%dx%d ta=%t tb=%t bias=%t relu=%t specials=%t: element %d = %v (%#x), contract says %v (%#x)",
									kc.name, m, k, n, ta, tb, bv != nil, relu, specials, i, got[i], floatBits(got[i]), want[i], floatBits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

func TestMatMulBitwise(t *testing.T) {
	t.Run("float32", func(t *testing.T) { testMatMulBitwise[float32](t, &scratchF32) })
	t.Run("float64", func(t *testing.T) { testMatMulBitwise[float64](t, &scratchF64) })
}

// testTileKernels calls the micro-kernels themselves, one tile at a time, on
// operands embedded in wider arrays (ldb, ldc > tileNR; A in both layouts).
func testTileKernels[T float32 | float64](t *testing.T) {
	nr := tileNR[T]()
	rng := splitmix(2)
	for _, k := range []int{0, 1, 2, 15, 16, 17, 257} {
		for c := 0; c < 4; c++ {
			ta, specials := c&1 != 0, c&2 != 0
			const pad = 3
			lda, ldb, ldc := k+pad, nr+pad, nr+pad
			if ta {
				lda = tileMR + pad
			}
			a, b := make([]T, (tileMR+k)*(tileMR+k+pad)), make([]T, k*ldb)
			fill(&rng, a, specials)
			fill(&rng, b, specials)
			rsa, csa := lda, 1
			if ta {
				rsa, csa = 1, lda
			}
			want := refMatMul(a, b, tileMR, k, nr, lda, ldb, ta, false)
			for _, kc := range kernelCases[T]() {
				c := make([]T, tileMR*ldc)
				fill(&rng, c, true)
				before := append([]T(nil), c...)
				kc.kern(k, a, rsa, csa, b, ldb, c, ldc)
				for i := 0; i < tileMR; i++ {
					if j := firstBitDiff(c[i*ldc:i*ldc+nr], want[i*nr:i*nr+nr]); j >= 0 {
						t.Fatalf("%s kernel, k=%d ta=%t specials=%t: c[%d][%d] = %v, contract says %v", kc.name, k, ta, specials, i, j, c[i*ldc+j], want[i*nr+j])
					}
					if j := firstBitDiff(c[i*ldc+nr:(i+1)*ldc], before[i*ldc+nr:(i+1)*ldc]); j >= 0 {
						t.Fatalf("%s kernel, k=%d ta=%t: wrote outside its tile, row %d column %d", kc.name, k, ta, i, nr+j)
					}
				}
			}
		}
	}
}

func TestTileKernelsObeyTheContract(t *testing.T) {
	t.Run("float32", func(t *testing.T) { testTileKernels[float32](t) })
	t.Run("float64", func(t *testing.T) { testTileKernels[float64](t) })
}

// digestShapes covers the tile path (whole strips, n-tails, row tails, each
// transpose), the small path, and both sides of useTiles.
var digestShapes = [][3]int{
	{64, 128, 256}, {64, 256, 10}, {33, 65, 70}, {5, 17, 19}, {4, 4, 4}, {7, 300, 16},
	{3, 64, 64}, {256, 64, 1}, {16, 3, 32}, {1, 1, 1},
}

func matmulDigest[T float32 | float64](pool *sync.Pool, kern tileKernel[T]) string {
	h := fnv.New64a()
	rng := splitmix(22)
	for _, sz := range digestShapes {
		m, k, n := sz[0], sz[1], sz[2]
		for c := 0; c < 4; c++ {
			ta, tb := c&1 != 0, c&2 != 0
			a, b, lda, ldb := operands[T](&rng, m, k, n, ta, tb, false)
			bias := make([]T, n)
			fill(&rng, bias, false)
			dst := make([]T, m*n)
			matmul(pool, kern, dst, a, b, m, k, n, lda, ldb, ta, tb, bias, c == 3)
			for _, v := range dst {
				bits := floatBits(v)
				for s := 0; s < 64; s += 8 {
					h.Write([]byte{byte(bits >> s)})
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMatMulDigest compares a hash of the output bits of a fixed set of
// products with the one committed in testdata/matmul_digest.txt. It is the
// same on every architecture and build; an edit that reorders a summation,
// fuses a multiply-add or changes a rounding moves it. If that was the
// intent, every recorded loss downstream (bench/golden.go) moves too —
// replace the lines with the ones this test prints.
func TestMatMulDigest(t *testing.T) {
	data, err := os.ReadFile("testdata/matmul_digest.txt")
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, kernel, digest string) {
		if line := name + " " + digest; !strings.Contains(string(data), line+"\n") {
			t.Errorf("%s kernel: digest line %q is not in testdata/matmul_digest.txt:\n%s", kernel, line, data)
		}
	}
	for _, kc := range kernelCases[float32]() {
		check("float32", kc.name, matmulDigest(&scratchF32, kc.kern))
	}
	for _, kc := range kernelCases[float64]() {
		check("float64", kc.name, matmulDigest(&scratchF64, kc.kern))
	}
}

// TestMatMulStaysInsideDst runs tail shapes with dst embedded in a larger
// array: the rows before and after it must keep their sentinel.
func TestMatMulStaysInsideDst(t *testing.T) {
	const sentinel = 12345.5
	rng := splitmix(3)
	for _, m := range []int{4, 5, 7, 9} {
		for _, n := range []int{4, 15, 16, 17, 35} {
			for c := 0; c < 4; c++ {
				ta, tb := c&1 != 0, c&2 != 0
				k := 17
				a, b, lda, ldb := operands[float32](&rng, m, k, n, ta, tb, false)
				for _, kc := range kernelCases[float32]() {
					whole := make([]float32, (m+4)*n)
					for i := range whole {
						whole[i] = sentinel
					}
					matmul(&scratchF32, kc.kern, whole[2*n:(m+2)*n], a, b, m, k, n, lda, ldb, ta, tb, nil, false)
					for i, v := range whole {
						if inside := i >= 2*n && i < (m+2)*n; !inside && v != sentinel {
							t.Fatalf("%s kernel, %dx%dx%d ta=%t tb=%t: wrote %v at offset %d, outside dst", kc.name, m, k, n, ta, tb, v, i-2*n)
						}
					}
				}
			}
		}
	}
}

// TestMatMulDoesNotSkipZeros pins that a non-finite value in B reaches every
// output element it touches whichever path computes the product: with A all
// zeros, 0·NaN and 0·Inf are NaN down the whole column. (The row kernels used
// to skip a zero in A, so there the columns read 0.)
func TestMatMulDoesNotSkipZeros(t *testing.T) {
	check := func(t *testing.T, out *Tensor, rows, n, jNaN, jInf int) {
		t.Helper()
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				v := out.FloatAt(i*n + j)
				if poisoned := j == jNaN || j == jInf; math.IsNaN(v) != poisoned {
					t.Fatalf("row %d column %d = %v, poisoned column: %t", i, j, v, poisoned)
				}
			}
		}
	}
	for _, dt := range []DType{Float32, Float64} {
		for _, sz := range [][3]int{{8, 16, 20}, {5, 17, 4}, {2, 3, 2}, {3, 64, 64}, {64, 40, 1}} {
			m, k, n := sz[0], sz[1], sz[2]
			jNaN, jInf := 0, n-1
			for c := 0; c < 4; c++ {
				ta, tb := c&1 != 0, c&2 != 0
				ash, bsh := Shape{m, k}, Shape{k, n}
				if ta {
					ash = Shape{k, m}
				}
				if tb {
					bsh = Shape{n, k}
				}
				a, b := New(dt, ash), Fill(New, dt, bsh, 1)
				at := func(p, j int) int {
					if tb {
						return j*k + p
					}
					return p*n + j
				}
				b.SetFloat(at(k/2, jNaN), math.NaN())
				b.SetFloat(at(k-1, jInf), math.Inf(1))
				t.Run(fmt.Sprintf("%v/%dx%dx%d/ta=%t/tb=%t", dt, m, k, n, ta, tb), func(t *testing.T) {
					out, err := MatMul(a, b, ta, tb)
					if err != nil {
						t.Fatal(err)
					}
					check(t, out, m, n, jNaN, jInf)
				})
			}
		}
		a, b := New(dt, Shape{3, 5, 6}), Fill(New, dt, Shape{3, 6, 7}, 1)
		for batch := 0; batch < 3; batch++ {
			b.SetFloat(batch*42+2*7+1, math.NaN())
			b.SetFloat(batch*42+5*7+4, math.Inf(-1))
		}
		out, err := BatchMatMul(New, a, b)
		if err != nil {
			t.Fatal(err)
		}
		check(t, out, 3*5, 7, 1, 4)
	}
}
