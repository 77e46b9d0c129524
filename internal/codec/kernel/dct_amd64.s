#include "textflag.h"

// The AVX2 side of the block transform (DESIGN.md §4, "Host kernels and
// their oracles"). Each output owns one accumulator lane that starts at
// +0 and adds its n individually rounded products in ascending index
// order — VMULPD then VADDPD, never a fused multiply-add — which is the
// arithmetic of rowsTimes, so the two agree on every bit. The Go
// wrappers in dct.go prove every range these routines touch.

// MAC1 adds a·Y8 to the accumulator acc, a being one element of A
// broadcast to every lane; MAC does the same for the column pair
// (Y8, Y9) and the accumulator pair (lo, hi).
#define MAC1(a, acc) \
	VBROADCASTSD a, Y10       \
	VMULPD       Y8, Y10, Y11 \
	VADDPD       Y11, acc, acc

#define MAC(a, lo, hi) \
	MAC1(a, lo)               \
	VMULPD Y9, Y10, Y12       \
	VADDPD Y12, hi, hi

// func mulRows(a, bm, c *float64, n int)
//
// C = A·Bm for row-major n×n matrices, n in {4, 8, 16, 32}:
// C[i][:] = Σ_j A[i][j]·Bm[j][:], j ascending. Four rows of eight
// columns are in flight at once, so eight independent adds cover the
// add latency.
TEXT ·mulRows(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ bm+8(FP), DX
	MOVQ c+16(FP), DI
	MOVQ n+24(FP), CX
	CMPQ CX, $4
	JEQ  four
	MOVQ CX, R8
	SHLQ $3, R8          // R8 = bytes per row
	LEAQ (R8)(R8*2), R9  // R9 = bytes per three rows
	MOVQ CX, R10         // R10 = rows left

rows:
	XORQ R11, R11 // R11 = byte offset of the column block

cols:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (DX)(R11*1), BX // BX = &Bm[j][col], j = 0
	MOVQ   SI, AX          // AX = &A[i][j]
	MOVQ   CX, R12         // R12 = products left

dot:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	MAC((AX), Y0, Y1)
	MAC((AX)(R8*1), Y2, Y3)
	MAC((AX)(R8*2), Y4, Y5)
	MAC((AX)(R9*1), Y6, Y7)
	ADDQ R8, BX
	ADDQ $8, AX
	DECQ R12
	JNZ  dot

	LEAQ    (DI)(R11*1), BX // BX = &C[i][col]
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, (BX)(R8*1)
	VMOVUPD Y3, 32(BX)(R8*1)
	VMOVUPD Y4, (BX)(R8*2)
	VMOVUPD Y5, 32(BX)(R8*2)
	VMOVUPD Y6, (BX)(R9*1)
	VMOVUPD Y7, 32(BX)(R9*1)
	ADDQ    $64, R11
	CMPQ    R11, R8
	JLT     cols
	LEAQ    (SI)(R8*4), SI
	LEAQ    (DI)(R8*4), DI
	SUBQ    $4, R10
	JNZ     rows
	VZEROUPPER
	RET

four: // one block of four rows by four columns
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dot4:
	VMOVUPD (DX), Y8
	MAC1((SI), Y0)
	MAC1(32(SI), Y1)
	MAC1(64(SI), Y2)
	MAC1(96(SI), Y3)
	ADDQ    $32, DX
	ADDQ    $8, SI
	DECQ    CX
	JNZ     dot4
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func widen(src *int32, a *float64, nn int)
//
// a[i] = float64(src[i]) for nn values, nn a multiple of four.
TEXT ·widen(SB), NOSPLIT, $0-24
	MOVQ src+0(FP), SI
	MOVQ a+8(FP), DI
	MOVQ nn+16(FP), CX

widen4:
	VCVTDQ2PD (SI), Y0
	VMOVUPD   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	JNZ       widen4
	VZEROUPPER
	RET

DATA roundConsts<>+0(SB)/8, $0x7fffffffffffffff // |x| mask
DATA roundConsts<>+8(SB)/8, $0x3fe0000000000000 // 0.5
DATA roundConsts<>+16(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL roundConsts<>(SB), RODATA|NOPTR, $24

// func roundNarrow(a *float64, dst *int32, nn int)
//
// dst[i] = int32(math.Round(a[i])) for nn values, nn a multiple of
// four: t = trunc(x) and d = x − t are exact, so "half away from zero"
// is t plus copysign(1, x) exactly when |d| ≥ 0.5 — no x + 0.5 that
// would round 0.49999999999999994 up. The truncating conversion yields
// 0x80000000 out of range, as the scalar CVTTSD2SL does.
TEXT ·roundNarrow(SB), NOSPLIT, $0-24
	MOVQ         a+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         nn+16(FP), CX
	VBROADCASTSD roundConsts<>+0(SB), Y13
	VBROADCASTSD roundConsts<>+8(SB), Y14
	VBROADCASTSD roundConsts<>+16(SB), Y15

round4:
	VMOVUPD     (SI), Y0
	VROUNDPD    $3, Y0, Y1        // t = trunc(x)
	VSUBPD      Y1, Y0, Y2        // d = x − t
	VANDPD      Y13, Y2, Y2       // |d|
	VCMPPD      $0x1d, Y14, Y2, Y2 // all ones where |d| ≥ 0.5
	VANDNPD     Y0, Y13, Y3       // sign bit of x
	VORPD       Y15, Y3, Y3       // copysign(1, x)
	VANDPD      Y2, Y3, Y3        // ±1 where rounding away, else +0
	VADDPD      Y3, Y1, Y1
	VCVTTPD2DQY Y1, X1
	VMOVDQU     X1, (DI)
	ADDQ        $32, SI
	ADDQ        $16, DI
	SUBQ        $4, CX
	JNZ         round4
	VZEROUPPER
	RET
