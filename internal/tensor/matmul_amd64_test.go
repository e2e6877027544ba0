//go:build amd64 && !noasm

package tensor

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestAssemblyKernelsAreInstalled makes "the selected kernel" in the other
// tests mean the assembly wherever the CPU can run it: a detection stub that
// wrongly said no would otherwise leave them comparing kernelGo with itself.
func TestAssemblyKernelsAreInstalled(t *testing.T) {
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		if flagged := strings.Contains(string(cpuinfo), " avx2 "); flagged != hasAVX2() {
			t.Fatalf("hasAVX2() = %t, /proc/cpuinfo lists avx2: %t", hasAVX2(), flagged)
		}
	}
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU: the Go kernels are the selected ones")
	}
	same := func(f, g any) bool { return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer() }
	if !same(kernelF32, kernelF32AVX2) || !same(kernelF64, kernelF64AVX2) {
		t.Fatal("AVX2 is available but init did not install the assembly kernels")
	}
}
