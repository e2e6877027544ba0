//go:build amd64 && !noasm

#include "textflag.h"

// func hasAVX2() bool
//
// CPUID leaf 1: OSXSAVE (ECX bit 27) and AVX (bit 28); XCR0 bits 1-2: the OS
// saves XMM and YMM state; CPUID leaf 7 subleaf 0: AVX2 (EBX bit 5).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	SETCS ret+0(FP)
done:
	RET

// Both kernels implement tileKernel (matmul.go) for a 4×(2 YMM) tile. The
// eight accumulators Y0-Y7 hold rows 0-3 × two vectors of output columns. One
// step of k loads the two vectors of B's row p into Y8/Y9, broadcasts the
// four A values a[i*rsa+p*csa] in turn, and for each does multiply, round,
// add, round. AX is the byte offset p*csa into each A row.

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

// func kernelF32AVX2(k int, a []float32, rsa, csa int, b []float32, ldb int, c []float32, ldc int)
TEXT ·kernelF32AVX2(SB), NOSPLIT, $0-112
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ rsa+32(FP), R8
	MOVQ csa+40(FP), R9
	MOVQ b_base+48(FP), DI
	MOVQ ldb+72(FP), R10
	MOVQ c_base+80(FP), DX
	MOVQ ldc+104(FP), R11
	SHLQ $2, R8                // strides in bytes
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	LEAQ (SI)(R8*1), R12       // rows 1-3 of A
	LEAQ (SI)(R8*2), R13
	LEAQ (R13)(R8*1), BX
	XORQ AX, AX
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
	MOVQ k+0(FP), CX
	MOVQ a_base+8(FP), SI
	MOVQ rsa+32(FP), R8
	MOVQ csa+40(FP), R9
	MOVQ b_base+48(FP), DI
	MOVQ ldb+72(FP), R10
	MOVQ c_base+80(FP), DX
	MOVQ ldc+104(FP), R11
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	LEAQ (SI)(R8*1), R12
	LEAQ (SI)(R8*2), R13
	LEAQ (R13)(R8*1), BX
	XORQ AX, AX
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
