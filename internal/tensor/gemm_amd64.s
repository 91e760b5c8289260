// Register-blocked AVX and AVX-512 matmul tiles: a block of C lives in
// eight YMM or sixteen ZMM accumulators for the whole reduction (Goto & van
// de Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
// 2008), so C is loaded and stored once per tile instead of once per four
// coefficients.
//
// gemmTile and gemmTileH hold a 4-row × 16-column block. Each step p loads
// B's row segment once — gemmTileH converts it from binary16 with
// VCVTPH2PS, which is exact — broadcasts the four rows' coefficients, and
// does eight VMULPS and eight VADDPS: separate rounding per operation, never
// FMA. Every element is therefore the strict left fold over ascending p that
// ov4/axpy4/axpy1 compute, in their operand order: products are b·a with b
// as the first source and sums are c + product with c as the first source,
// so even NaN payloads come out the same.
//
// gemmTileZ and gemmTileZH are the 512-bit tier of gemmTile and gemmTileH:
// an 8-row × 32-column block in the sixteen ZMM accumulators Z0–Z15, row r
// in Z(2r):Z(2r+1). Each step loads (or converts) B's 32-value row segment
// into Z16:Z17 and does sixteen VMULPS and sixteen VADDPS in the same
// operand order, so they fold every element exactly as the 4×16 tile does.
// They need AVX-512F and the OS saving opmask and ZMM state (useZMM).
//
// gemmTile8 holds an 8-row × 8-column block for MatMulBT's Cᵀ = B·Aᵀ fold,
// where B's rows are the coefficients and Aᵀ's rows the vectors. Its
// products are coefficient · row, so B stays the first multiplicand, as it
// is in the transposed fold, and the two paths agree to the bit.

#include "textflag.h"

// MUL4x16 starts the four rows' folds from the products of the B segment in
// Y8:Y9 with the coefficients at (SI), (SI)(R9), (SI)(R9*2), (SI)(R11).
#define MUL4x16 \
	VBROADCASTSS (SI), Y10       \
	VBROADCASTSS (SI)(R9*1), Y11 \
	VMULPS       Y10, Y8, Y0     \
	VMULPS       Y10, Y9, Y1     \
	VMULPS       Y11, Y8, Y2     \
	VMULPS       Y11, Y9, Y3     \
	VBROADCASTSS (SI)(R9*2), Y10 \
	VBROADCASTSS (SI)(R11*1), Y11 \
	VMULPS       Y10, Y8, Y4     \
	VMULPS       Y10, Y9, Y5     \
	VMULPS       Y11, Y8, Y6     \
	VMULPS       Y11, Y9, Y7

// FOLD4x16 adds the products of the B segment in Y8:Y9 and the four rows'
// coefficients to the accumulators Y0–Y7.
#define FOLD4x16 \
	VBROADCASTSS (SI), Y10        \
	VBROADCASTSS (SI)(R9*1), Y11  \
	VMULPS       Y10, Y8, Y12     \
	VMULPS       Y10, Y9, Y13     \
	VMULPS       Y11, Y8, Y14     \
	VMULPS       Y11, Y9, Y15     \
	VADDPS       Y12, Y0, Y0      \
	VADDPS       Y13, Y1, Y1      \
	VADDPS       Y14, Y2, Y2      \
	VADDPS       Y15, Y3, Y3      \
	VBROADCASTSS (SI)(R9*2), Y10  \
	VBROADCASTSS (SI)(R11*1), Y11 \
	VMULPS       Y10, Y8, Y12     \
	VMULPS       Y10, Y9, Y13     \
	VMULPS       Y11, Y8, Y14     \
	VMULPS       Y11, Y9, Y15     \
	VADDPS       Y12, Y4, Y4      \
	VADDPS       Y13, Y5, Y5      \
	VADDPS       Y14, Y6, Y6      \
	VADDPS       Y15, Y7, Y7

// LOAD4x16 and STORE4x16 move the 4×16 block of C at DI (rows 0, 1) and BX
// (rows 2, 3), rows R8 bytes apart, to and from Y0–Y7.
#define LOAD4x16 \
	VMOVUPS (DI), Y0          \
	VMOVUPS 32(DI), Y1        \
	VMOVUPS (DI)(R8*1), Y2    \
	VMOVUPS 32(DI)(R8*1), Y3  \
	VMOVUPS (BX), Y4          \
	VMOVUPS 32(BX), Y5        \
	VMOVUPS (BX)(R8*1), Y6    \
	VMOVUPS 32(BX)(R8*1), Y7

#define STORE4x16 \
	VMOVUPS Y0, (DI)          \
	VMOVUPS Y1, 32(DI)        \
	VMOVUPS Y2, (DI)(R8*1)    \
	VMOVUPS Y3, 32(DI)(R8*1)  \
	VMOVUPS Y4, (BX)          \
	VMOVUPS Y5, 32(BX)        \
	VMOVUPS Y6, (BX)(R8*1)    \
	VMOVUPS Y7, 32(BX)(R8*1)

// ARGS4x16 loads the shared arguments of gemmTile and gemmTileH: C at DI
// and BX (row 2), coefficients at SI, B at DX, k in CX, C's row stride in
// R8 (bytes), the coefficient strides in R9 (rows) and R10 (steps), and
// row 3's coefficient offset in R11.
#define ARGS4x16 \
	MOVQ c_base+0(FP), DI  \
	MOVQ a_base+24(FP), SI \
	MOVQ b_base+48(FP), DX \
	MOVQ n+72(FP), R8      \
	SHLQ $2, R8            \
	MOVQ ars+80(FP), R9    \
	SHLQ $2, R9            \
	MOVQ aps+88(FP), R10   \
	SHLQ $2, R10           \
	MOVQ k+96(FP), CX      \
	LEAQ (R9)(R9*2), R11   \
	LEAQ (DI)(R8*2), BX

// func gemmTile(c, a, b []float32, n, ars, aps, k int, add bool)
TEXT ·gemmTile(SB), NOSPLIT, $0-105
	ARGS4x16
	CMPB add+104(FP), $0
	JEQ  first
	LOAD4x16
	JMP  loop

first: // overwrite: step 0's products start the fold
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	MUL4x16
	ADDQ    R10, SI
	ADDQ    R8, DX
	DECQ    CX

loop:
	TESTQ   CX, CX
	JZ      store
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	FOLD4x16
	ADDQ    R10, SI
	ADDQ    R8, DX
	DECQ    CX
	JMP     loop

store:
	STORE4x16
	VZEROUPPER
	RET

// func gemmTileH(c, a []float32, b []Half, n, ars, aps, k int, add bool)
// B's rows are n halves (2n bytes) apart; R12 holds that stride.
TEXT ·gemmTileH(SB), NOSPLIT, $0-105
	ARGS4x16
	MOVQ n+72(FP), R12
	SHLQ $1, R12
	CMPB add+104(FP), $0
	JEQ  first
	LOAD4x16
	JMP  loop

first:
	VCVTPH2PS (DX), Y8
	VCVTPH2PS 16(DX), Y9
	MUL4x16
	ADDQ      R10, SI
	ADDQ      R12, DX
	DECQ      CX

loop:
	TESTQ     CX, CX
	JZ        store
	VCVTPH2PS (DX), Y8
	VCVTPH2PS 16(DX), Y9
	FOLD4x16
	ADDQ      R10, SI
	ADDQ      R12, DX
	DECQ      CX
	JMP       loop

store:
	STORE4x16
	VZEROUPPER
	RET

// func gemmTile8(c, a, b []float32, n, ars, aps, k int, add bool)
// Rows 0–3 of C sit at DI, rows 4–7 at BX, R8 bytes apart (R13 = 3·R8);
// rows 0–3's coefficients at SI, rows 4–7's at R12 (R11 = 3·R9). Each
// step loads the 8-wide B row into Y8 and broadcasts one coefficient per
// row into Y9 or Y11; VMULPS row, coefficient puts the coefficient first.
TEXT ·gemmTile8(SB), NOSPLIT, $0-105
	ARGS4x16
	LEAQ (R8)(R8*2), R13
	LEAQ (DI)(R8*4), BX
	LEAQ (SI)(R9*4), R12
	CMPB add+104(FP), $0
	JEQ  first8
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R8*1), Y1
	VMOVUPS (DI)(R8*2), Y2
	VMOVUPS (DI)(R13*1), Y3
	VMOVUPS (BX), Y4
	VMOVUPS (BX)(R8*1), Y5
	VMOVUPS (BX)(R8*2), Y6
	VMOVUPS (BX)(R13*1), Y7
	JMP     loop8

first8:
	VMOVUPS      (DX), Y8
	VBROADCASTSS (SI), Y9
	VBROADCASTSS (SI)(R9*1), Y11
	VMULPS       Y8, Y9, Y0
	VMULPS       Y8, Y11, Y1
	VBROADCASTSS (SI)(R9*2), Y9
	VBROADCASTSS (SI)(R11*1), Y11
	VMULPS       Y8, Y9, Y2
	VMULPS       Y8, Y11, Y3
	VBROADCASTSS (R12), Y9
	VBROADCASTSS (R12)(R9*1), Y11
	VMULPS       Y8, Y9, Y4
	VMULPS       Y8, Y11, Y5
	VBROADCASTSS (R12)(R9*2), Y9
	VBROADCASTSS (R12)(R11*1), Y11
	VMULPS       Y8, Y9, Y6
	VMULPS       Y8, Y11, Y7
	ADDQ         R10, SI
	ADDQ         R10, R12
	ADDQ         R8, DX
	DECQ         CX

loop8:
	TESTQ        CX, CX
	JZ           store8
	VMOVUPS      (DX), Y8
	VBROADCASTSS (SI), Y9
	VBROADCASTSS (SI)(R9*1), Y11
	VMULPS       Y8, Y9, Y10
	VMULPS       Y8, Y11, Y12
	VADDPS       Y10, Y0, Y0
	VADDPS       Y12, Y1, Y1
	VBROADCASTSS (SI)(R9*2), Y9
	VBROADCASTSS (SI)(R11*1), Y11
	VMULPS       Y8, Y9, Y10
	VMULPS       Y8, Y11, Y12
	VADDPS       Y10, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS (R12), Y9
	VBROADCASTSS (R12)(R9*1), Y11
	VMULPS       Y8, Y9, Y10
	VMULPS       Y8, Y11, Y12
	VADDPS       Y10, Y4, Y4
	VADDPS       Y12, Y5, Y5
	VBROADCASTSS (R12)(R9*2), Y9
	VBROADCASTSS (R12)(R11*1), Y11
	VMULPS       Y8, Y9, Y10
	VMULPS       Y8, Y11, Y12
	VADDPS       Y10, Y6, Y6
	VADDPS       Y12, Y7, Y7
	ADDQ         R10, SI
	ADDQ         R10, R12
	ADDQ         R8, DX
	DECQ         CX
	JMP          loop8

store8:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R8*1)
	VMOVUPS Y2, (DI)(R8*2)
	VMOVUPS Y3, (DI)(R13*1)
	VMOVUPS Y4, (BX)
	VMOVUPS Y5, (BX)(R8*1)
	VMOVUPS Y6, (BX)(R8*2)
	VMOVUPS Y7, (BX)(R13*1)
	VZEROUPPER
	RET

// MUL4x32 starts four rows' folds, coefficients at (s), (s)(R9*1),
// (s)(R9*2) and (s)(R11*1), from their products with the B segment in
// Z16:Z17, into the accumulator pairs c0:c1 … c6:c7.
#define MUL4x32(s, c0, c1, c2, c3, c4, c5, c6, c7) \
	VBROADCASTSS (s), Z18        \
	VBROADCASTSS (s)(R9*1), Z19  \
	VBROADCASTSS (s)(R9*2), Z20  \
	VBROADCASTSS (s)(R11*1), Z21 \
	VMULPS       Z18, Z16, c0    \
	VMULPS       Z18, Z17, c1    \
	VMULPS       Z19, Z16, c2    \
	VMULPS       Z19, Z17, c3    \
	VMULPS       Z20, Z16, c4    \
	VMULPS       Z20, Z17, c5    \
	VMULPS       Z21, Z16, c6    \
	VMULPS       Z21, Z17, c7

// FOLD4x32 adds the same four rows' products to c0 … c7.
#define FOLD4x32(s, c0, c1, c2, c3, c4, c5, c6, c7) \
	VBROADCASTSS (s), Z18        \
	VBROADCASTSS (s)(R9*1), Z19  \
	VBROADCASTSS (s)(R9*2), Z20  \
	VBROADCASTSS (s)(R11*1), Z21 \
	VMULPS       Z18, Z16, Z22   \
	VMULPS       Z18, Z17, Z23   \
	VMULPS       Z19, Z16, Z24   \
	VMULPS       Z19, Z17, Z25   \
	VMULPS       Z20, Z16, Z26   \
	VMULPS       Z20, Z17, Z27   \
	VMULPS       Z21, Z16, Z28   \
	VMULPS       Z21, Z17, Z29   \
	VADDPS       Z22, c0, c0     \
	VADDPS       Z23, c1, c1     \
	VADDPS       Z24, c2, c2     \
	VADDPS       Z25, c3, c3     \
	VADDPS       Z26, c4, c4     \
	VADDPS       Z27, c5, c5     \
	VADDPS       Z28, c6, c6     \
	VADDPS       Z29, c7, c7

// MUL8x32 and FOLD8x32 run the eight rows: 0–3 from SI, 4–7 from R12.
#define MUL8x32 \
	MUL4x32(SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7) \
	MUL4x32(R12, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)

#define FOLD8x32 \
	FOLD4x32(SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7) \
	FOLD4x32(R12, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)

// LOAD8x32 and STORE8x32 move the 8×32 block of C at DI (rows 0–3) and BX
// (rows 4–7), rows R8 bytes apart (R13 = 3·R8), to and from Z0–Z15.
#define LOAD8x32 \
	VMOVUPS (DI), Z0           \
	VMOVUPS 64(DI), Z1         \
	VMOVUPS (DI)(R8*1), Z2     \
	VMOVUPS 64(DI)(R8*1), Z3   \
	VMOVUPS (DI)(R8*2), Z4     \
	VMOVUPS 64(DI)(R8*2), Z5   \
	VMOVUPS (DI)(R13*1), Z6    \
	VMOVUPS 64(DI)(R13*1), Z7  \
	VMOVUPS (BX), Z8           \
	VMOVUPS 64(BX), Z9         \
	VMOVUPS (BX)(R8*1), Z10    \
	VMOVUPS 64(BX)(R8*1), Z11  \
	VMOVUPS (BX)(R8*2), Z12    \
	VMOVUPS 64(BX)(R8*2), Z13  \
	VMOVUPS (BX)(R13*1), Z14   \
	VMOVUPS 64(BX)(R13*1), Z15

#define STORE8x32 \
	VMOVUPS Z0, (DI)           \
	VMOVUPS Z1, 64(DI)         \
	VMOVUPS Z2, (DI)(R8*1)     \
	VMOVUPS Z3, 64(DI)(R8*1)   \
	VMOVUPS Z4, (DI)(R8*2)     \
	VMOVUPS Z5, 64(DI)(R8*2)   \
	VMOVUPS Z6, (DI)(R13*1)    \
	VMOVUPS Z7, 64(DI)(R13*1)  \
	VMOVUPS Z8, (BX)           \
	VMOVUPS Z9, 64(BX)         \
	VMOVUPS Z10, (BX)(R8*1)    \
	VMOVUPS Z11, 64(BX)(R8*1)  \
	VMOVUPS Z12, (BX)(R8*2)    \
	VMOVUPS Z13, 64(BX)(R8*2)  \
	VMOVUPS Z14, (BX)(R13*1)   \
	VMOVUPS Z15, 64(BX)(R13*1)

// ARGS8x32 is ARGS4x16 with BX at row 4 of C, R13 = 3·R8 and rows 4–7's
// coefficients at R12.
#define ARGS8x32 \
	ARGS4x16             \
	LEAQ (R8)(R8*2), R13 \
	LEAQ (DI)(R8*4), BX  \
	LEAQ (SI)(R9*4), R12

// NEXT8x32 moves the coefficients one step on and B one row down (R8 bytes
// for fp32, AX for half) and counts the step.
#define NEXT8x32(bstride) \
	ADDQ R10, SI      \
	ADDQ R10, R12     \
	ADDQ bstride, DX  \
	DECQ CX

// func gemmTileZ(c, a, b []float32, n, ars, aps, k int, add bool)
TEXT ·gemmTileZ(SB), NOSPLIT, $0-105
	ARGS8x32
	CMPB add+104(FP), $0
	JEQ  first
	LOAD8x32
	JMP  loop

first: // overwrite: step 0's products start the fold
	VMOVUPS (DX), Z16
	VMOVUPS 64(DX), Z17
	MUL8x32
	NEXT8x32(R8)
	JZ      store

loop:
	VMOVUPS (DX), Z16
	VMOVUPS 64(DX), Z17
	FOLD8x32
	NEXT8x32(R8)
	JNZ     loop

store:
	STORE8x32
	VZEROUPPER
	RET

// func gemmTileZH(c, a []float32, b []Half, n, ars, aps, k int, add bool)
// B's rows are n halves (2n bytes) apart; AX holds that stride.
TEXT ·gemmTileZH(SB), NOSPLIT, $0-105
	ARGS8x32
	MOVQ n+72(FP), AX
	SHLQ $1, AX
	CMPB add+104(FP), $0
	JEQ  first
	LOAD8x32
	JMP  loop

first:
	VCVTPH2PS (DX), Z16
	VCVTPH2PS 32(DX), Z17
	MUL8x32
	NEXT8x32(AX)
	JZ        store

loop:
	VCVTPH2PS (DX), Z16
	VCVTPH2PS 32(DX), Z17
	FOLD8x32
	NEXT8x32(AX)
	JNZ       loop

store:
	STORE8x32
	VZEROUPPER
	RET
