// SSE inner loops for the dense kernels. Lanes map to distinct output
// elements (vectorization across output columns), so each element's fold
// order is exactly the scalar fallback's — the SIMD path is bitwise
// identical to axpy_generic.go. SSE only: it is part of the amd64
// baseline, so these run on every amd64 CPU. axpy1 and ov1 also serve
// Add, Scale and CrossEntropyBackward; in the matmul fold, where useLanes
// holds, all four carry only the tails of the AVX tiles in gemm_amd64.s,
// which fold in the same order and operand order (b·a, then c + product).

#include "textflag.h"

// func axpy1(c, b []float32, a float32)
// c[j] = c[j] + a*b[j]
TEXT ·axpy1(SB), NOSPLIT, $0-52
	MOVQ  c_base+0(FP), DI
	MOVQ  c_len+8(FP), CX
	MOVQ  b_base+24(FP), SI
	MOVSS a+48(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-8, DX
axpy1_loop8:
	CMPQ  AX, DX
	JGE   axpy1_tail
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X3
	MULPS X0, X1
	MULPS X0, X3
	MOVUPS (DI)(AX*4), X2
	MOVUPS 16(DI)(AX*4), X4
	ADDPS X1, X2
	ADDPS X3, X4
	MOVUPS X2, (DI)(AX*4)
	MOVUPS X4, 16(DI)(AX*4)
	ADDQ  $8, AX
	JMP   axpy1_loop8
axpy1_tail:
	CMPQ  AX, CX
	JGE   axpy1_done
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS (DI)(AX*4), X2
	ADDSS X1, X2
	MOVSS X2, (DI)(AX*4)
	INCQ  AX
	JMP   axpy1_tail
axpy1_done:
	RET

// func ov1(c, b []float32, a float32)
// c[j] = a*b[j]
TEXT ·ov1(SB), NOSPLIT, $0-52
	MOVQ  c_base+0(FP), DI
	MOVQ  c_len+8(FP), CX
	MOVQ  b_base+24(FP), SI
	MOVSS a+48(FP), X0
	SHUFPS $0x00, X0, X0
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-8, DX
ov1_loop8:
	CMPQ  AX, DX
	JGE   ov1_tail
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MULPS X0, X1
	MULPS X0, X2
	MOVUPS X1, (DI)(AX*4)
	MOVUPS X2, 16(DI)(AX*4)
	ADDQ  $8, AX
	JMP   ov1_loop8
ov1_tail:
	CMPQ  AX, CX
	JGE   ov1_done
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS X1, (DI)(AX*4)
	INCQ  AX
	JMP   ov1_tail
ov1_done:
	RET

// func axpy4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
// c[j] = c[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], folded left to
// right per element.
TEXT ·axpy4(SB), NOSPLIT, $0-136
	MOVQ  c_base+0(FP), DI
	MOVQ  c_len+8(FP), CX
	MOVQ  b0_base+24(FP), SI
	MOVQ  b1_base+48(FP), R8
	MOVQ  b2_base+72(FP), R9
	MOVQ  b3_base+96(FP), R10
	MOVSS a0+120(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS a1+124(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS a2+128(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS a3+132(FP), X3
	SHUFPS $0x00, X3, X3
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-8, DX
axpy4_loop8:
	CMPQ  AX, DX
	JGE   axpy4_red4
	MOVUPS (DI)(AX*4), X4
	MOVUPS 16(DI)(AX*4), X5
	MOVUPS (SI)(AX*4), X6
	MOVUPS 16(SI)(AX*4), X7
	MULPS X0, X6
	MULPS X0, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS (R8)(AX*4), X6
	MOVUPS 16(R8)(AX*4), X7
	MULPS X1, X6
	MULPS X1, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS (R9)(AX*4), X6
	MOVUPS 16(R9)(AX*4), X7
	MULPS X2, X6
	MULPS X2, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS (R10)(AX*4), X6
	MOVUPS 16(R10)(AX*4), X7
	MULPS X3, X6
	MULPS X3, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS X4, (DI)(AX*4)
	MOVUPS X5, 16(DI)(AX*4)
	ADDQ  $8, AX
	JMP   axpy4_loop8
axpy4_red4:
	MOVQ  CX, DX
	ANDQ  $-4, DX
axpy4_loop4:
	CMPQ  AX, DX
	JGE   axpy4_tail
	MOVUPS (DI)(AX*4), X4
	MOVUPS (SI)(AX*4), X6
	MULPS X0, X6
	ADDPS X6, X4
	MOVUPS (R8)(AX*4), X6
	MULPS X1, X6
	ADDPS X6, X4
	MOVUPS (R9)(AX*4), X6
	MULPS X2, X6
	ADDPS X6, X4
	MOVUPS (R10)(AX*4), X6
	MULPS X3, X6
	ADDPS X6, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ  $4, AX
	JMP   axpy4_loop4
axpy4_tail:
	CMPQ  AX, CX
	JGE   axpy4_done
	MOVSS (DI)(AX*4), X4
	MOVSS (SI)(AX*4), X6
	MULSS X0, X6
	ADDSS X6, X4
	MOVSS (R8)(AX*4), X6
	MULSS X1, X6
	ADDSS X6, X4
	MOVSS (R9)(AX*4), X6
	MULSS X2, X6
	ADDSS X6, X4
	MOVSS (R10)(AX*4), X6
	MULSS X3, X6
	ADDSS X6, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   axpy4_tail
axpy4_done:
	RET

// func ov4(c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32)
// c[j] = a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], folded left to right.
TEXT ·ov4(SB), NOSPLIT, $0-136
	MOVQ  c_base+0(FP), DI
	MOVQ  c_len+8(FP), CX
	MOVQ  b0_base+24(FP), SI
	MOVQ  b1_base+48(FP), R8
	MOVQ  b2_base+72(FP), R9
	MOVQ  b3_base+96(FP), R10
	MOVSS a0+120(FP), X0
	SHUFPS $0x00, X0, X0
	MOVSS a1+124(FP), X1
	SHUFPS $0x00, X1, X1
	MOVSS a2+128(FP), X2
	SHUFPS $0x00, X2, X2
	MOVSS a3+132(FP), X3
	SHUFPS $0x00, X3, X3
	XORQ  AX, AX
	MOVQ  CX, DX
	ANDQ  $-8, DX
ov4_loop8:
	CMPQ  AX, DX
	JGE   ov4_red4
	MOVUPS (SI)(AX*4), X4
	MOVUPS 16(SI)(AX*4), X5
	MULPS X0, X4
	MULPS X0, X5
	MOVUPS (R8)(AX*4), X6
	MOVUPS 16(R8)(AX*4), X7
	MULPS X1, X6
	MULPS X1, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS (R9)(AX*4), X6
	MOVUPS 16(R9)(AX*4), X7
	MULPS X2, X6
	MULPS X2, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS (R10)(AX*4), X6
	MOVUPS 16(R10)(AX*4), X7
	MULPS X3, X6
	MULPS X3, X7
	ADDPS X6, X4
	ADDPS X7, X5
	MOVUPS X4, (DI)(AX*4)
	MOVUPS X5, 16(DI)(AX*4)
	ADDQ  $8, AX
	JMP   ov4_loop8
ov4_red4:
	MOVQ  CX, DX
	ANDQ  $-4, DX
ov4_loop4:
	CMPQ  AX, DX
	JGE   ov4_tail
	MOVUPS (SI)(AX*4), X4
	MULPS X0, X4
	MOVUPS (R8)(AX*4), X6
	MULPS X1, X6
	ADDPS X6, X4
	MOVUPS (R9)(AX*4), X6
	MULPS X2, X6
	ADDPS X6, X4
	MOVUPS (R10)(AX*4), X6
	MULPS X3, X6
	ADDPS X6, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ  $4, AX
	JMP   ov4_loop4
ov4_tail:
	CMPQ  AX, CX
	JGE   ov4_done
	MOVSS (SI)(AX*4), X4
	MULSS X0, X4
	MOVSS (R8)(AX*4), X6
	MULSS X1, X6
	ADDSS X6, X4
	MOVSS (R9)(AX*4), X6
	MULSS X2, X6
	ADDSS X6, X4
	MOVSS (R10)(AX*4), X6
	MULSS X3, X6
	ADDSS X6, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   ov4_tail
ov4_done:
	RET
