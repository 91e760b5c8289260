// Register-blocked AVX matmul tile: a 4-row × 16-column block of C lives in
// eight YMM accumulators for the whole reduction (Goto & van de Geijn,
// "Anatomy of High-Performance Matrix Multiplication", ACM TOMS 2008), so C
// is loaded and stored once per tile instead of once per four coefficients.
//
// Each step p loads B's row segment once, broadcasts the four rows'
// coefficients, and does eight VMULPS and eight VADDPS — separate rounding
// per operation, never FMA. Every element is therefore the strict left fold
// over ascending p that ov4/axpy4/axpy1 compute, in their operand order:
// products are b·a with b as the first source and sums are c + product with
// c as the first source, so even NaN payloads come out the same.

#include "textflag.h"

// func gemmTile(c, a, b []float32, n, ars, aps, k int, add bool)
TEXT ·gemmTile(SB), NOSPLIT, $0-105
	MOVQ c_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ n+72(FP), R8
	SHLQ $2, R8            // row stride of B and C, bytes
	MOVQ ars+80(FP), R9
	SHLQ $2, R9            // coefficient stride between rows, bytes
	MOVQ aps+88(FP), R10
	SHLQ $2, R10           // coefficient stride between steps, bytes
	MOVQ k+96(FP), CX
	LEAQ (R9)(R9*2), R11   // row 3's coefficient offset
	LEAQ (DI)(R8*2), BX    // C row 2
	CMPB add+104(FP), $0
	JEQ  first

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R8*1), Y2
	VMOVUPS 32(DI)(R8*1), Y3
	VMOVUPS (BX), Y4
	VMOVUPS 32(BX), Y5
	VMOVUPS (BX)(R8*1), Y6
	VMOVUPS 32(BX)(R8*1), Y7
	JMP     loop

first: // overwrite: step 0's products start the fold
	VMOVUPS      (DX), Y8
	VMOVUPS      32(DX), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R9*1), Y11
	VMULPS       Y10, Y8, Y0
	VMULPS       Y10, Y9, Y1
	VMULPS       Y11, Y8, Y2
	VMULPS       Y11, Y9, Y3
	VBROADCASTSS (SI)(R9*2), Y10
	VBROADCASTSS (SI)(R11*1), Y11
	VMULPS       Y10, Y8, Y4
	VMULPS       Y10, Y9, Y5
	VMULPS       Y11, Y8, Y6
	VMULPS       Y11, Y9, Y7
	ADDQ         R10, SI
	ADDQ         R8, DX
	DECQ         CX

loop:
	TESTQ        CX, CX
	JZ           store
	VMOVUPS      (DX), Y8
	VMOVUPS      32(DX), Y9
	VBROADCASTSS (SI), Y10
	VBROADCASTSS (SI)(R9*1), Y11
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VMULPS       Y11, Y8, Y14
	VMULPS       Y11, Y9, Y15
	VADDPS       Y12, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VADDPS       Y14, Y2, Y2
	VADDPS       Y15, Y3, Y3
	VBROADCASTSS (SI)(R9*2), Y10
	VBROADCASTSS (SI)(R11*1), Y11
	VMULPS       Y10, Y8, Y12
	VMULPS       Y10, Y9, Y13
	VMULPS       Y11, Y8, Y14
	VMULPS       Y11, Y9, Y15
	VADDPS       Y12, Y4, Y4
	VADDPS       Y13, Y5, Y5
	VADDPS       Y14, Y6, Y6
	VADDPS       Y15, Y7, Y7
	ADDQ         R10, SI
	ADDQ         R8, DX
	DECQ         CX
	JMP          loop

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, 32(BX)
	VMOVUPS Y6, (BX)(R8*1)
	VMOVUPS Y7, 32(BX)(R8*1)
	VZEROUPPER
	RET
