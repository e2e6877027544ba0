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

var tanhSweep = flag.Bool("tanh-sweep", false,
	"TestTanhKernelsMatchMathTanh compares the assembly kernels on all 2³² float32 bit patterns (make tanh-sweep)")

type tanhKernel struct {
	name string
	run  func(dst, src []float32)
}

// tanhKernels lists tanhLoop and the assembly tanh kernel if this CPU can run
// it, behind the wrapper that finishes the tail.
func tanhKernels() []tanhKernel {
	return append([]tanhKernel{{"go", tanhLoop}}, asmTanhKernels()...)
}

// tanhSpecials are the inputs where a lane could part from math.Tanh: signed
// zeros and denormals, infinities, quiet and signalling NaNs with payloads
// and either sign, both sides of the branch at 0.625 and of the one at
// 0.5·MAXLOG, and the ends of the float32 range.
func tanhSpecials() []float32 {
	const maxlog = 8.8029691931113054295988e+01
	var v []float32
	for _, x := range []float32{
		0, math.SmallestNonzeroFloat32, 3 * math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
		math.Float32frombits(0x00800000), 1e-20, 0.1, 0.5, 1, 2, 9.01, 20, 44, 45, 88.03, 1e10,
		math.MaxFloat32, float32(math.Inf(1)),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc01234), // quiet NaNs
		math.Float32frombits(0x7f800001), math.Float32frombits(0x7fa5a5a5), // signalling NaNs
	} {
		v = append(v, x, -x)
	}
	for _, edge := range []float32{0.625, maxlog / 2} {
		for _, x := range []float32{edge, math.Nextafter32(edge, 0), math.Nextafter32(edge, 100),
			math.Nextafter32(math.Nextafter32(edge, 0), 0), math.Nextafter32(math.Nextafter32(edge, 100), 100)} {
			v = append(v, x, -x)
		}
	}
	return v
}

// TestTanhKernelsMatchMathTanh holds every tanh kernel the CPU can run to
// float32(math.Tanh(float64(x))) bit for bit, NaN payloads included: on the
// special inputs at every length up to 40 (so every tail the wrapper leaves),
// then the assembly kernel on a strided sweep of the float32 bit patterns —
// all 2³² of them with -tanh-sweep. The kernel follows math.Exp's unfused
// path, so the full sweep is what shows that math.Exp's FMA path rounds no
// float32 tanh differently, and the tripwire for a toolchain whose math.Exp
// or math.Tanh changes.
func TestTanhKernelsMatchMathTanh(t *testing.T) {
	specials := tanhSpecials()
	const sentinel = 12345.5
	for _, k := range tanhKernels() {
		for n := 0; n <= 40; n++ {
			src := make([]float32, n)
			for i := range src {
				src[i] = specials[(i+7*n)%len(specials)]
			}
			dst := make([]float32, n+8)
			for i := range dst {
				dst[i] = sentinel
			}
			k.run(dst, src)
			for i, x := range src {
				if want := float32(math.Tanh(float64(x))); math.Float32bits(dst[i]) != math.Float32bits(want) {
					t.Fatalf("%s kernel, n=%d: tanh(%v = %#x) = %v (%#x), float32(math.Tanh) gives %v (%#x)",
						k.name, n, x, math.Float32bits(x), dst[i], math.Float32bits(dst[i]), want, math.Float32bits(want))
				}
			}
			for i := n; i < len(dst); i++ {
				if dst[i] != sentinel {
					t.Fatalf("%s kernel, n=%d: wrote dst[%d] past the input", k.name, n, i)
				}
			}
		}
	}
	stride := uint64(1021)
	if *tanhSweep {
		stride = 1
	}
	sweepTanh(t, asmTanhKernels(), stride)
}

// sweepTanh compares kernels with tanhLoop on the float32 bit patterns 0,
// stride, 2·stride, … below 2³², split over GOMAXPROCS goroutines. (tanhLoop
// is the reference itself, so only the assembly kernels need the sweep.)
func sweepTanh(t *testing.T, kernels []tanhKernel, stride uint64) {
	const chunk = 1 << 16
	var next atomic.Uint64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, want, got := make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
			for !failed.Load() {
				b := next.Add(chunk*stride) - chunk*stride
				n := 0
				for ; n < chunk && b < 1<<32; b += stride {
					src[n] = math.Float32frombits(uint32(b))
					n++
				}
				if n == 0 {
					return
				}
				tanhLoop(want[:n], src[:n])
				for _, k := range kernels {
					k.run(got[:n], src[:n])
					for i := range n {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							failed.Store(true)
							t.Errorf("%s kernel: tanh(%#x) = %#x, float32(math.Tanh) gives %#x",
								k.name, math.Float32bits(src[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTanh times the float32 tanh kernels in ns per element at the size
// of the benchmark's while loop and at 64 Ki, on values like the loop's
// pre-activations. Run it as
//
//	go test -run '^$' -bench 'Tanh' -cpu 1 ./internal/tensor
func BenchmarkTanh(b *testing.B) {
	for _, n := range []int{512, 64 << 10} {
		src, dst := make([]float32, n), make([]float32, n)
		rng := splitmix(32)
		fill(&rng, src, false)
		for i := range src {
			src[i] /= 4 // [-2, 2): both branches, as the loop's values
		}
		for _, k := range tanhKernels() {
			b.Run(fmt.Sprintf("%d/%s", n, k.name), func(b *testing.B) {
				for b.Loop() {
					k.run(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
			})
		}
	}
}
