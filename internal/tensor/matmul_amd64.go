//go:build amd64 && !noasm

package tensor

// The AVX2 and AVX-512 tileKernels (matmul_amd64.s): one output element per
// vector lane, VMULPS/VMULPD then VADDPS/VADDPD at either width — never a fused
// multiply-add, which would skip the product's rounding.

//go:noescape
func kernelF32AVX2(k int, a []float32, rsa, csa int, b []float32, ldb int, c []float32, ldc int)

//go:noescape
func kernelF64AVX2(k int, a []float64, rsa, csa int, b []float64, ldb int, c []float64, ldc int)

//go:noescape
func kernelF32AVX512(k int, a []float32, rsa, csa int, b []float32, ldb int, c []float32, ldc int)

//go:noescape
func kernelF64AVX512(k int, a []float64, rsa, csa int, b []float64, ldb int, c []float64, ldc int)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state.
func hasAVX2() bool

// hasAVX512 reports whether the CPU has AVX512F and the OS saves ZMM state.
func hasAVX512() bool

// init installs the widest tile kernels the CPU can run.
func init() {
	switch {
	case hasAVX512():
		kernelF32, kernelF64 = kernelF32AVX512, kernelF64AVX512
	case hasAVX2():
		kernelF32, kernelF64 = kernelF32AVX2, kernelF64AVX2
	}
}
