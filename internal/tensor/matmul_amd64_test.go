//go:build amd64 && !noasm

package tensor

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// asmKernels lists the assembly tile kernels this CPU can run, narrowest
// first.
func asmKernels() []asmKernel {
	var ks []asmKernel
	if hasAVX2() {
		ks = append(ks, asmKernel{"avx2", kernelF32AVX2, kernelF64AVX2})
	}
	if hasAVX512() {
		ks = append(ks, asmKernel{"avx512", kernelF32AVX512, kernelF64AVX512})
	}
	return ks
}

// asmTanhKernels lists the assembly tanh kernel, if this CPU can run it.
func asmTanhKernels() []tanhKernel {
	if hasAVX2() {
		return []tanhKernel{{"avx2", tanhAVX2}}
	}
	return nil
}

// TestAssemblyKernelsAreInstalled makes "the kernel MatMul runs" mean the
// widest assembly the CPU can run, and ApplyMomentum's, Tanh's and the
// element-wise float32 loops the AVX2 ones wherever they can: a detection stub
// that wrongly said no would otherwise leave the other tests comparing the Go
// loops with themselves.
func TestAssemblyKernelsAreInstalled(t *testing.T) {
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		var flags []string
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				flags = strings.Fields(list)
				break
			}
		}
		for _, f := range []struct {
			flag string
			has  func() bool
		}{{"avx2", hasAVX2}, {"avx512f", hasAVX512}} {
			if listed := slices.Contains(flags, f.flag); listed != f.has() {
				t.Errorf("detection says %s %t, /proc/cpuinfo lists it: %t", f.flag, f.has(), listed)
			}
		}
	}
	same := func(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }
	switch {
	case hasAVX512():
		if !same(kernelF32, kernelF32AVX512) || !same(kernelF64, kernelF64AVX512) {
			t.Error("AVX-512 is available but init did not install the AVX-512 kernels")
		}
	case hasAVX2():
		if !same(kernelF32, kernelF32AVX2) || !same(kernelF64, kernelF64AVX2) {
			t.Error("AVX2 is available but init did not install the AVX2 kernels")
		}
	default:
		t.Skip("no AVX2 on this CPU: the Go kernels are the selected ones")
	}
	if !same(momentumF32, momentumAVX2) || !same(tanhF32, tanhAVX2) {
		t.Error("AVX2 is available but init did not install the assembly Momentum and Tanh loops")
	}
	if !same(binaryF32, binaryAVX2) || !same(reluF32, reluAVX2) || !same(reluGradF32, reluGradAVX2) || !same(sumF32, sumAVX2) {
		t.Error("AVX2 is available but init did not install the assembly element-wise loops")
	}
}
