//go:build !amd64 || noasm

package tensor

// The assembly kernels this CPU can run: none on a build without them.
func asmKernels() []asmKernel      { return nil }
func asmTanhKernels() []tanhKernel { return nil }
