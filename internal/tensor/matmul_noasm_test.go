//go:build !amd64 || noasm

package tensor

// asmKernels lists the assembly tile kernels this CPU can run: none on a
// build without them.
func asmKernels() []asmKernel { return nil }
