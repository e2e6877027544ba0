package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMul times the products the repo benchmark's six workloads run
// (bench/local.go denseKernels and whileKernels, the serving model's two
// request sizes, the sparse tower's one-column head), each once per
// micro-kernel the CPU can run (go, avx2, avx512; only go on a build without
// the assembly), and reports GFLOP/s. Run it as
//
//	go test -run '^$' -bench MatMul -cpu 1 ./internal/tensor
func BenchmarkMatMul(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
		ta, tb  bool
	}{
		{"mlp", 64, 128, 256, false, false},
		{"mlp", 64, 256, 256, false, false},
		{"mlp", 64, 256, 10, false, false},
		{"mlp", 128, 64, 256, true, false},
		{"mlp", 256, 64, 256, true, false},
		{"mlp", 256, 64, 10, true, false},
		{"mlp", 64, 256, 256, false, true},
		{"mlp", 64, 10, 256, false, true},
		{"while", 16, 32, 32, false, false},
		{"while", 32, 16, 32, true, false},
		{"while", 16, 32, 32, false, true},
		{"serve", 1, 64, 64, false, false},
		{"serve", 16, 64, 64, false, false},
		{"sparse", 256, 64, 1, false, false},
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range shapes {
		ash, bsh := Shape{s.m, s.k}, Shape{s.k, s.n}
		if s.ta {
			ash = Shape{s.k, s.m}
		}
		if s.tb {
			bsh = Shape{s.n, s.k}
		}
		a, bm := randTensor(rng, Float32, ash), randTensor(rng, Float32, bsh)
		dst := make([]float32, s.m*s.n)
		for _, kn := range kernelCases[float32]() {
			name := fmt.Sprintf("%s/%dx%dx%d/ta=%t/tb=%t/%s", s.name, s.m, s.k, s.n, s.ta, s.tb, kn.name)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					matmul(&scratchF32, kn.kern, dst, a.Float32s(), bm.Float32s(), s.m, s.k, s.n, ash[1], bsh[1], s.ta, s.tb, nil, false)
				}
				b.ReportMetric(2*float64(s.m)*float64(s.k)*float64(s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

// BenchmarkConv2D measures the convolution kernel (§3.1's canonical 4-D
// operation).
func BenchmarkConv2D(b *testing.B) {
	in := NewRNG(1).Uniform(Float32, Shape{8, 28, 28, 16}, -1, 1)
	filter := NewRNG(2).Uniform(Float32, Shape{3, 3, 16, 32}, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Conv2D(New, in, filter, 1, 1, PaddingSame); err != nil {
			b.Fatal(err)
		}
	}
}
