// F16C binary16 ↔ binary32 batch conversions, eight lanes per iteration.
//
// VCVTPH2PS is exact, as every binary16 value is a binary32 value; on NaNs
// it sets the quiet bit and keeps the payload, which is what Half.Float32
// does. VCVTPS2PH with immediate 0 rounds to nearest even, as FromFloat32
// does, and differs from it only on NaN: the hardware keeps the top nine
// payload bits where FromFloat32 returns the canonical sign|0x7e00. So on
// lanes whose exponent field is all ones the kernels clear the payload
// below the quiet bit (h &^= 0x01ff), which leaves Inf unchanged; the same
// exponent mask ORed across lanes is the overflow flag.

#include "textflag.h"

DATA hexp<>+0(SB)/8, $0x7c007c007c007c00
DATA hexp<>+8(SB)/8, $0x7c007c007c007c00
GLOBL hexp<>(SB), RODATA|NOPTR, $16

DATA hpayload<>+0(SB)/8, $0x01ff01ff01ff01ff
DATA hpayload<>+8(SB)/8, $0x01ff01ff01ff01ff
GLOBL hpayload<>(SB), RODATA|NOPTR, $16

// encode8 rounds the eight floats in Y0 to canonical halves in X1 and ORs
// the lanes that are Inf or NaN into X7. X2 is scratch.
#define encode8 \
	VCVTPS2PH $0, Y0, X1             \
	VPAND     hexp<>(SB), X1, X2     \
	VPCMPEQW  hexp<>(SB), X2, X2     \ // exponent all ones
	VPOR      X2, X7, X7             \
	VPAND     hpayload<>(SB), X2, X2 \
	VPANDN    X1, X2, X1               // NaN → sign|0x7e00

// func halfDecodeLanes(dst []float32, src []Half)
TEXT ·halfDecodeLanes(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX

decode_loop:
	CMPQ      AX, CX
	JGE       decode_done
	VCVTPH2PS (SI)(AX*2), Y0
	VMOVUPS   Y0, (DI)(AX*4)
	ADDQ      $8, AX
	JMP       decode_loop

decode_done:
	VZEROUPPER
	RET

// func halfEncodeLanes(dst []Half, src []float32, round bool) bool
TEXT ·halfEncodeLanes(SB), NOSPLIT, $0-57
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	MOVBLZX round+48(FP), DX
	VPXOR   X7, X7, X7
	XORQ    AX, AX

encode_loop:
	CMPQ    AX, CX
	JGE     encode_done
	VMOVUPS (SI)(AX*4), Y0
	encode8
	VMOVDQU X1, (DI)(AX*2)
	TESTQ   DX, DX
	JZ      encode_next
	VCVTPH2PS X1, Y0
	VMOVUPS Y0, (SI)(AX*4)

encode_next:
	ADDQ $8, AX
	JMP  encode_loop

encode_done:
	VPTEST X7, X7
	SETNE  ret+56(FP)
	VZEROUPPER
	RET

// func roundHalfLanes(x []float32) bool
TEXT ·roundHalfLanes(SB), NOSPLIT, $0-25
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	VPXOR X7, X7, X7
	XORQ  AX, AX

round_loop:
	CMPQ      AX, CX
	JGE       round_done
	VMOVUPS   (SI)(AX*4), Y0
	encode8
	VCVTPH2PS X1, Y0
	VMOVUPS   Y0, (SI)(AX*4)
	ADDQ      $8, AX
	JMP       round_loop

round_done:
	VPTEST X7, X7
	SETNE  ret+24(FP)
	VZEROUPPER
	RET
