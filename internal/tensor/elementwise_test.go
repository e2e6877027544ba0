package tensor

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var ewSweep = flag.Bool("ew-sweep", false,
	"TestElementwiseKernelsSweep runs all 2³² float32 bit patterns through Relu, ReluGrad and Div by a power of two (make ew-sweep)")

// ewSpecials are the float32 values where a vector kernel could part from
// its Go loop: signed zeros, the ends of the denormal range, the largest
// finite values, infinities, and quiet and signalling NaNs of either sign
// with payloads (so a kernel that takes an operation's operands in another
// order keeps another payload and shows).
func ewSpecials() []float32 {
	var v []float32
	for _, x := range []float32{
		0, math.SmallestNonzeroFloat32, 3 * math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
		math.Float32frombits(0x00800000), 1, 1.5, 0.1, 3, 1e-30, 1e30, math.MaxFloat32, float32(math.Inf(1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc01234), // quiet NaNs
		math.Float32frombits(0x7f800001), math.Float32frombits(0x7fa5a5a5), // signalling NaNs
	} {
		v = append(v, x, -x)
	}
	return v
}

// ewOperands returns n values starting at an offset of off elements into
// their slice (so the vector loads meet every alignment), a mix of specials
// and ordinary values.
func ewOperands(rng *splitmix, n, off int) []float32 {
	specials := ewSpecials()
	v := make([]float32, off+n)[off:]
	fill(rng, v, false)
	for i := range v {
		if r := rng.next(); r%3 == 0 {
			v[i] = specials[r>>2%uint64(len(specials))]
		}
	}
	return v
}

// sameF32Bits reports the first index at which got and want differ in their
// bits, NaN payloads included, or -1.
func sameF32Bits(got, want []float32) int {
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

// eitherNaN reports whether x and y are both NaN and got is one of them made
// quiet. An SSE instruction passes on its first source's NaN, and for + and ×
// which operand comes first is the Go compiler's register choice: it moved in
// binaryLoop's Mul when a neighbouring branch did. So on a pair of NaNs a
// commutative kernel may give either payload; on everything else, and in
// Sub, its bits are the Go loop's.
func eitherNaN(got, x, y float64) bool {
	const quiet = 1 << 51
	g := math.Float64bits(got)
	return x != x && y != y && (g == math.Float64bits(x)|quiet || g == math.Float64bits(y)|quiet)
}

// dirty returns n elements of a sentinel and eight more past them, so a
// kernel that leaves an element unwritten, or writes past its end, shows.
func dirty(n int) []float32 {
	v := make([]float32, n+8)
	for i := range v {
		v[i] = 12345.5
	}
	return v
}

func checkKernel(t *testing.T, what string, commutes bool, n int, got, want []float32, args ...[]float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) == math.Float32bits(want[i]) ||
			commutes && eitherNaN(float64(got[i]), float64(args[0][i&stepMask(len(args[0]), n)]), float64(args[1][i&stepMask(len(args[1]), n)])) {
			continue
		}
		var in []string
		for _, a := range args {
			x := a[i&stepMask(len(a), n)]
			in = append(in, fmt.Sprintf("%v (%#x)", x, math.Float32bits(x)))
		}
		t.Fatalf("%s, n=%d: [%d] of %v = %v (%#x), the Go loop gives %v (%#x)",
			what, n, i, in, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
	for i := n; i < len(got); i++ {
		if got[i] != 12345.5 {
			t.Fatalf("%s, n=%d: wrote [%d] past the end", what, n, i)
		}
	}
}

// TestElementwiseKernelsMatchLoops holds the float32 kernels Binary, Unary's
// Relu, ReluGrad and Reduce's column sum run — the AVX2 ones where
// TestAssemblyKernelsAreInstalled says so — to the Go loops bit for bit, NaN
// payloads included, at every length up to 67 (so every tail the eight-wide
// loops leave) and at four alignments. Division by a power of two whose
// reciprocal is exact is held to the plain quotient as well, for divisors
// from 2⁻¹⁴⁹ to 2¹²⁷ of both signs; 3 and 7.5 are not powers of two, and must
// take the quotient itself.
func TestElementwiseKernelsMatchLoops(t *testing.T) {
	rng := splitmix(44)
	divisors := []float32{0x1p-149, 0x1p-126, 0.5, 2, 0x1p127, 3, 7.5}
	for _, d := range divisors {
		divisors = append(divisors, -d)
	}
	scalars := append(ewSpecials(), 0.9, 0x1p-20)
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			a, b := ewOperands(&rng, n, off), ewOperands(&rng, n, 3-off)
			want := make([]float32, n)
			run := func(what string, op BinaryOp, x, y []float32) {
				t.Helper()
				got := dirty(n)
				binaryF32(op, got[:n], x, y)
				binaryLoop(op, want, x, y)
				checkKernel(t, what, op == OpAdd || op == OpMul, n, got, want, x, y)
			}
			for _, op := range []BinaryOp{OpAdd, OpSub, OpMul, OpDiv} {
				run(op.String()+" same shape", op, a, b)
			}
			for _, s := range scalars {
				run(fmt.Sprintf("Mul by %v on the right", s), OpMul, a, []float32{s})
				run(fmt.Sprintf("Mul by %v on the left", s), OpMul, []float32{s}, a)
			}
			for _, d := range divisors {
				what := fmt.Sprintf("Div by %v", d)
				run(what, OpDiv, a, []float32{d})
				for i, x := range a {
					want[i] = x / d
				}
				got := dirty(n)
				binaryF32(OpDiv, got[:n], a, []float32{d})
				checkKernel(t, what+" against the quotient", false, n, got, want, a)
			}

			got := dirty(n)
			reluF32(got[:n], a)
			reluLoop(want, a)
			checkKernel(t, "Relu", false, n, got, want, a)
			got = dirty(n)
			reluGradF32(got[:n], b, a)
			reluGradLoop(want, b, a)
			checkKernel(t, "ReluGrad", false, n, got, want, b, a)

			acc, wantAcc := make([]float64, n), make([]float64, n)
			for i, x := range b {
				acc[i] = float64(x) * 3 // NaNs of their own, whose payloads must win
				wantAcc[i] = acc[i]
			}
			sumF32(acc, a)
			sumLoop(wantAcc, a)
			for i := range acc {
				if math.Float64bits(acc[i]) != math.Float64bits(wantAcc[i]) && !eitherNaN(acc[i], float64(b[i])*3, float64(a[i])) {
					t.Fatalf("column sum, n=%d: acc[%d] = %v + %v gives %#x, the Go loop %#x",
						n, i, float64(b[i])*3, a[i], math.Float64bits(acc[i]), math.Float64bits(wantAcc[i]))
				}
			}
		}
	}
}

// TestElementwiseKernelsSweep runs float32 bit patterns through the Relu and
// ReluGrad kernels, against the Go loops, and through Div by 2, 0.5 and
// 2⁻¹²⁶, against the plain quotient: a strided sweep here, all 2³² patterns
// with -ew-sweep.
func TestElementwiseKernelsSweep(t *testing.T) {
	stride := uint64(1021)
	if *ewSweep {
		stride = 1
	}
	const chunk = 1 << 16
	var next atomic.Uint64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, grad, got, want := make([]float32, chunk), make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
			fail := func(what string, i int, want float32) bool {
				failed.Store(true)
				t.Errorf("%s(%#x) = %#x, want %#x", what, math.Float32bits(src[i]), math.Float32bits(got[i]), math.Float32bits(want))
				return false
			}
			check := func(what string, n int) bool {
				if i := sameF32Bits(got[:n], want[:n]); i >= 0 {
					return fail(what, i, want[i])
				}
				return true
			}
			for !failed.Load() {
				b := next.Add(chunk*stride) - chunk*stride
				n := 0
				for ; n < chunk && b < 1<<32; b += stride {
					src[n] = math.Float32frombits(uint32(b))
					grad[n] = math.Float32frombits(^uint32(b) ^ 0x5a5a5a5a)
					n++
				}
				if n == 0 {
					return
				}
				reluF32(got[:n], src[:n])
				reluLoop(want[:n], src[:n])
				if !check("Relu", n) {
					return
				}
				reluGradF32(got[:n], grad[:n], src[:n])
				reluGradLoop(want[:n], grad[:n], src[:n])
				if !check("ReluGrad's mask", n) {
					return
				}
				for _, d := range []float32{2, 0.5, 0x1p-126} {
					binaryF32(OpDiv, got[:n], src[:n], []float32{d})
					for i, x := range src[:n] {
						if q := x / d; math.Float32bits(got[i]) != math.Float32bits(q) {
							fail(fmt.Sprintf("Div by %v", d), i, q)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkElementwise times the float32 kernels a sync round runs over its
// weights, in ns per element, at the size of the benchmark's largest
// parameter. Run it as
//
//	go test -run '^$' -bench Elementwise -cpu 1 ./internal/tensor
func BenchmarkElementwise(b *testing.B) {
	const n = 100 << 10
	rng := splitmix(45)
	x, y, out := make([]float32, n), make([]float32, n), make([]float32, n)
	fill(&rng, x, false)
	fill(&rng, y, false)
	acc := make([]float64, n)
	x64, y64 := make([]float64, n), make([]float64, n)
	for i := range x64 {
		x64[i], y64[i] = float64(x[i]), float64(y[i])
	}
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"Add", func() { binaryF32(OpAdd, out, x, y) }},
		{"Sub", func() { binaryF32(OpSub, out, x, y) }},
		{"Div", func() { binaryF32(OpDiv, out, x, y) }},
		{"Max", func() { binaryF32(OpMaximum, out, x, y) }},
		{"Min", func() { binaryF32(OpMinimum, out, x, y) }},
		{"AddScalar", func() { binaryF32(OpAdd, out, x, []float32{0.5}) }},
		{"AddFloat64", func() { binaryLoop(OpAdd, acc, x64, y64) }},
		{"Mul", func() { binaryF32(OpMul, out, x, y) }},
		{"MulScalar", func() { binaryF32(OpMul, out, x, []float32{0.9}) }},
		{"DivBy2", func() { binaryF32(OpDiv, out, x, []float32{2}) }},
		{"Relu", func() { reluF32(out, x) }},
		{"ReluGrad", func() { reluGradF32(out, y, x) }},
		{"ColumnSum", func() { sumF32(acc, x) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				k.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/element")
		})
	}
}
