//go:build amd64 && !noasm

#include "textflag.h"

// The four kernels implement tileKernel (matmul.go) for a tile of 4 rows × 64
// bytes of output columns: the AVX2 pair holds a row in two YMM registers
// (accumulators Y0-Y7), the AVX-512 pair in one ZMM (Z0-Z3). One step of k
// loads B's row p (Y8/Y9 or Z8), broadcasts the four A values a[i*rsa+p*csa]
// in turn, and for each does multiply, round, add, round — every lane the
// same two instructions in the same order at either width. AX is the byte
// offset p*csa into each A row.

// One row of a float32 step: acc0, acc1 += a[row][p] * (Y8, Y9).
#define ROW32(arow, acc0, acc1) \
	VBROADCASTSS (arow)(AX*1), Y10 \
	VMULPS       Y8, Y10, Y11      \
	VADDPS       Y11, acc0, acc0   \
	VMULPS       Y9, Y10, Y11      \
	VADDPS       Y11, acc1, acc1

#define ROW64(arow, acc0, acc1) \
	VBROADCASTSD (arow)(AX*1), Y10 \
	VMULPD       Y8, Y10, Y11      \
	VADDPD       Y11, acc0, acc0   \
	VMULPD       Y9, Y10, Y11      \
	VADDPD       Y11, acc1, acc1

// One row of a float32 step at 512 bits: acc += a[row][p] * Z8.
#define ROW32Z(arow, acc) \
	VBROADCASTSS (arow)(AX*1), Z10 \
	VMULPS       Z8, Z10, Z11      \
	VADDPS       Z11, acc, acc

#define ROW64Z(arow, acc) \
	VBROADCASTSD (arow)(AX*1), Z10 \
	VMULPD       Z8, Z10, Z11      \
	VADDPD       Z11, acc, acc

// CPUHAS sets CF when CPUID leaf 1 lists OSXSAVE (ECX bit 27) and AVX (bit
// 28), XCR0 has every bit of xcr0 (the OS saves those register states) and
// CPUID leaf 7 subleaf 0 has EBX bit `bit`; it jumps to done when a check
// before the last fails.
#define CPUHAS(xcr0, bit) \
	XORL AX, AX            \
	CPUID                  \
	CMPL AX, $7            \
	JLT  done              \
	MOVL $1, AX            \
	XORL CX, CX            \
	CPUID                  \
	ANDL $0x18000000, CX   \
	CMPL CX, $0x18000000   \
	JNE  done              \
	XORL CX, CX            \
	XGETBV                 \
	ANDL $xcr0, AX         \
	CMPL AX, $xcr0         \
	JNE  done              \
	MOVL $7, AX            \
	XORL CX, CX            \
	CPUID                  \
	BTL  $bit, BX

// func hasAVX2() bool
//
// XCR0 bits 1-2: XMM and YMM state; AVX2 is leaf 7 EBX bit 5.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	CPUHAS(0x06, 5)
	SETCS ret+0(FP)
done:
	RET

// func hasAVX512() bool
//
// XCR0 bits 1-2 and 5-7: XMM, YMM, the opmask registers and all 512 bits of
// ZMM0-31; AVX512F is leaf 7 EBX bit 16.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	CPUHAS(0xE6, 16)
	SETCS ret+0(FP)
done:
	RET

// func kernelF32AVX2(k int, a []float32, rsa, csa int, b []float32, ldb int, c []float32, ldc int)
TEXT ·kernelF32AVX2(SB), NOSPLIT, $0-112

// TILEARGS loads the arguments, converts the strides to bytes (shift is log2
// of the element size) and points SI, R12, R13 and BX at rows 0-3 of A. It is
// defined inside this body so that go vet checks its argument offsets against
// this signature, which all four kernels share.
#define TILEARGS(shift) \
	MOVQ k+0(FP), CX          \
	MOVQ a_base+8(FP), SI     \
	MOVQ rsa+32(FP), R8       \
	MOVQ csa+40(FP), R9       \
	MOVQ b_base+48(FP), DI    \
	MOVQ ldb+72(FP), R10      \
	MOVQ c_base+80(FP), DX    \
	MOVQ ldc+104(FP), R11     \
	SHLQ $shift, R8           \
	SHLQ $shift, R9           \
	SHLQ $shift, R10          \
	SHLQ $shift, R11          \
	LEAQ (SI)(R8*1), R12      \
	LEAQ (SI)(R8*2), R13      \
	LEAQ (R13)(R8*1), BX      \
	XORQ AX, AX

	TILEARGS(2)
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ CX, CX
	JZ    store32
loop32:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	ROW32(SI, Y0, Y1)
	ROW32(R12, Y2, Y3)
	ROW32(R13, Y4, Y5)
	ROW32(BX, Y6, Y7)
	ADDQ R9, AX
	ADDQ R10, DI
	DECQ CX
	JNZ  loop32
store32:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    R11, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    R11, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    R11, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

// func kernelF64AVX2(k int, a []float64, rsa, csa int, b []float64, ldb int, c []float64, ldc int)
TEXT ·kernelF64AVX2(SB), NOSPLIT, $0-112
	TILEARGS(3)
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ    store64
loop64:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	ROW64(SI, Y0, Y1)
	ROW64(R12, Y2, Y3)
	ROW64(R13, Y4, Y5)
	ROW64(BX, Y6, Y7)
	ADDQ R9, AX
	ADDQ R10, DI
	DECQ CX
	JNZ  loop64
store64:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R11, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R11, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R11, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	VZEROUPPER
	RET

// func kernelF32AVX512(k int, a []float32, rsa, csa int, b []float32, ldb int, c []float32, ldc int)
TEXT ·kernelF32AVX512(SB), NOSPLIT, $0-112
	TILEARGS(2)
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	TESTQ  CX, CX
	JZ     store32z
loop32z:
	VMOVUPS (DI), Z8
	ROW32Z(SI, Z0)
	ROW32Z(R12, Z1)
	ROW32Z(R13, Z2)
	ROW32Z(BX, Z3)
	ADDQ R9, AX
	ADDQ R10, DI
	DECQ CX
	JNZ  loop32z
store32z:
	VMOVUPS Z0, (DX)
	ADDQ    R11, DX
	VMOVUPS Z1, (DX)
	ADDQ    R11, DX
	VMOVUPS Z2, (DX)
	ADDQ    R11, DX
	VMOVUPS Z3, (DX)
	VZEROUPPER
	RET

// func kernelF64AVX512(k int, a []float64, rsa, csa int, b []float64, ldb int, c []float64, ldc int)
TEXT ·kernelF64AVX512(SB), NOSPLIT, $0-112
	TILEARGS(3)
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	TESTQ  CX, CX
	JZ     store64z
loop64z:
	VMOVUPD (DI), Z8
	ROW64Z(SI, Z0)
	ROW64Z(R12, Z1)
	ROW64Z(R13, Z2)
	ROW64Z(BX, Z3)
	ADDQ R9, AX
	ADDQ R10, DI
	DECQ CX
	JNZ  loop64z
store64z:
	VMOVUPD Z0, (DX)
	ADDQ    R11, DX
	VMOVUPD Z1, (DX)
	ADDQ    R11, DX
	VMOVUPD Z2, (DX)
	ADDQ    R11, DX
	VMOVUPD Z3, (DX)
	VZEROUPPER
	RET
