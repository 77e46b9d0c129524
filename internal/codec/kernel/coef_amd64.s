#include "textflag.h"

// The AVX2 side of the coefficient loops: the quantizer pair and the
// rate estimate. Each routine works eight int32 lanes at a time; the
// last group of a block that is not a multiple of eight is read (and
// written) with VPMASKMOVD under a mask of its first r lanes, which
// touches no memory in the masked-off lanes. The Go wrappers in coef.go
// prove each block holds n values, n positive.

// tailMask holds eight −1 dwords, then eight zeros: the eight dwords
// from tailMask<>+32−4r on have their first r lanes set.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// TAILMASK sets mask to the lanes of the r < 8 values left in CX,
// clobbering BX.
#define TAILMASK(mask) \
	LEAQ    tailMask<>+32(SB), BX \
	SHLQ    $2, CX                \
	SUBQ    CX, BX                \
	VMOVDQU (BX), mask

// QUANT8 sets Y1 to the levels of the eight coefficients in Y0, with
// round in every dword of Y15 and inv in every dword of Y14. VPABSD
// gives |c|, MinInt32's read unsigned as 2³¹; with round < 2³⁰ the sum
// stays below 2³², so the dword add carries nothing out. VPMULUDQ
// multiplies the even dwords, and again after VPSRLQ has moved the odd
// ones down, unsigned, into 64-bit products below 2⁴⁹. The Go loop's
// int64 level is that product >> 16; with inv ≤ 1.25·2¹⁶ it is below
// 2³², so its low dword — the even products shifted right by 16, the
// odd ones left by 16 into the upper dword, then blended — is the whole
// level. m = c >> 31 then restores the sign as (x^m)−m, the low 32 bits
// of the Go loop's int64 (l^m)−m.
#define QUANT8 \
	VPABSD   Y0, Y1            \
	VPADDD   Y15, Y1, Y1       \
	VPSRLQ   $32, Y1, Y2       \
	VPMULUDQ Y14, Y1, Y1       \
	VPMULUDQ Y14, Y2, Y2       \
	VPSRLQ   $16, Y1, Y1       \
	VPSLLQ   $16, Y2, Y2       \
	VPBLENDD $0xaa, Y2, Y1, Y1 \
	VPSRAD   $31, Y0, Y3       \
	VPXOR    Y3, Y1, Y1        \
	VPSUBD   Y3, Y1, Y1

// COUNTZEROS subtracts one in Y12's lane for each zero level in Y1.
#define COUNTZEROS \
	VPCMPEQD Y13, Y1, Y2 \
	VPADDD   Y2, Y12, Y12

// func quantizeAVX2(coefs *int32, levels *int32, n int, inv, round int64) int
//
// levels[i] = the dead-zone level of coefs[i] for i < n, and the count
// of nonzero levels. A level is nonzero exactly when its low dword is,
// so the count is the lanes worked less the zero levels among them; the
// masked-off lanes of the last group are cleared before they are
// counted, so they count as zeros.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-48
	MOVQ         coefs+0(FP), SI
	MOVQ         levels+8(FP), DI
	MOVQ         n+16(FP), CX
	MOVQ         inv+24(FP), AX
	VMOVQ        AX, X14
	VPBROADCASTD X14, Y14
	MOVQ         round+32(FP), AX
	VMOVQ        AX, X15
	VPBROADCASTD X15, Y15
	VPXOR        Y13, Y13, Y13 // zero
	VPXOR        Y12, Y12, Y12 // minus the zero levels, per lane
	LEAQ         7(CX), AX
	ANDQ         $-8, AX       // AX = lanes worked: n rounded up to eight
	SUBQ         $8, CX        // CX = values left, less 8
	JLT          qtail

qgroup:
	VMOVDQU (SI), Y0
	QUANT8
	VMOVDQU Y1, (DI)
	COUNTZEROS
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     qgroup

qtail:
	ADDQ $8, CX // CX = values left, under 8
	JZ   qdone
	TAILMASK(Y11)
	VPMASKMOVD (SI), Y11, Y0
	QUANT8
	VPAND      Y11, Y1, Y1
	VPMASKMOVD Y1, Y11, (DI)
	COUNTZEROS

qdone:
	VEXTRACTI128 $1, Y12, X0
	VPADDD       X12, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVQ        X0, BX
	MOVLQSX      BX, BX
	ADDQ         BX, AX
	MOVQ         AX, ret+40(FP)
	VZEROUPPER
	RET

// DEQUANT8 sets Y1 to the coefficients of the eight levels in Y0, with
// stepFx in every dword of Y15. VPMULDQ multiplies the even dwords, and
// again after VPSRLQ has moved the odd ones down, sign-extended, into
// the Go loop's exact int64 products. The low 32 bits of an arithmetic
// >> 8 are bits 8–39 of the product, which a logical one moves to the
// same place: VPSRLQ $8 for the even products; VPSLLQ $24 puts the odd
// ones' in the upper dword, and VPBLENDD interleaves the two.
#define DEQUANT8 \
	VPSRLQ   $32, Y0, Y2       \
	VPMULDQ  Y15, Y0, Y1       \
	VPMULDQ  Y15, Y2, Y2       \
	VPSRLQ   $8, Y1, Y1        \
	VPSLLQ   $24, Y2, Y2       \
	VPBLENDD $0xaa, Y2, Y1, Y1

// func dequantizeAVX2(levels *int32, coefs *int32, n int, stepFx int64)
//
// coefs[i] = int32(levels[i]·stepFx >> 8) for i < n, stepFx an int32.
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-32
	MOVQ         levels+0(FP), SI
	MOVQ         coefs+8(FP), DI
	MOVQ         n+16(FP), CX
	MOVQ         stepFx+24(FP), AX
	VMOVQ        AX, X15
	VPBROADCASTD X15, Y15
	SUBQ         $8, CX   // CX = values left, less 8
	JLT          dqtail

dqgroup:
	VMOVDQU (SI), Y0
	DEQUANT8
	VMOVDQU Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JGE     dqgroup

dqtail:
	ADDQ $8, CX // CX = values left, under 8
	JZ   dqdone
	TAILMASK(Y11)
	VPMASKMOVD (SI), Y11, Y0
	DEQUANT8
	VPMASKMOVD Y1, Y11, (DI)

dqdone:
	VZEROUPPER
	RET

// func bitsEstimateAVX2(levels *int32, n int) int
//
// rdo's rate estimate of n levels. A nonzero level costs 3 + 2·Len32(|l|)
// bits. VCVTDQ2PD converts each level to a double exactly, and the
// biased exponent of a nonzero double is 1022 + Len32(|l|) — MinInt32
// included, whose magnitude 2³¹ has 32 bits — while a zero's is 0; a
// shift left by one drops the sign and a shift right by 53 leaves the
// exponent. So the levels' costs sum to 2·Σe − 2041·nz over every lane,
// with no abs and no per-level branch. The zero runs are a scalar walk
// over chunks of up to 64 levels: VMOVMSKPS of each group's zero lanes,
// inverted, is its nonzero mask, shifted into the chunk's, and TZCNT
// steps through the chunk's set bits alone, adding (i − next)/4 for the
// level at i, next being the index after the previous nonzero level (0
// at the block's start). Masked-off lanes of the last group read as
// zeros, which cost nothing. TZCNT never sees a zero mask, where it
// computes what BSF does.
TEXT ·bitsEstimateAVX2(SB), NOSPLIT, $0-24
	MOVQ  levels+0(FP), SI
	MOVQ  n+8(FP), R13  // R13 = levels left
	VPXOR Y15, Y15, Y15 // zero
	VPXOR Y14, Y14, Y14 // Σ exponents, per qword
	XORQ  AX, AX        // Σ zero runs / 4
	XORQ  R8, R8        // next: the index after the last nonzero level
	XORQ  R9, R9        // nonzero levels
	XORQ  DI, DI        // the chunk's first index

bchunk:
	XORQ R11, R11 // the chunk's nonzero mask
	XORQ CX, CX   // the group's first lane in the chunk

bgroup:
	CMPQ    R13, $8
	JLT     bpartial
	VMOVDQU (SI), Y0
	JMP     bwork

bpartial:
	LEAQ       tailMask<>+32(SB), BX
	SHLQ       $2, R13
	SUBQ       R13, BX
	VMOVDQU    (BX), Y11
	VPMASKMOVD (SI), Y11, Y0
	MOVQ       $8, R13          // the last group: nothing left after it

bwork:
	VCVTDQ2PD    X0, Y1
	VEXTRACTI128 $1, Y0, X2
	VCVTDQ2PD    X2, Y2
	VPSLLQ       $1, Y1, Y1
	VPSLLQ       $1, Y2, Y2
	VPSRLQ       $53, Y1, Y1
	VPSRLQ       $53, Y2, Y2
	VPADDQ       Y1, Y14, Y14
	VPADDQ       Y2, Y14, Y14
	VPCMPEQD     Y15, Y0, Y3
	VMOVMSKPS    Y3, BX
	XORQ         $0xff, BX    // the group's nonzero lanes
	SHLQ         CX, BX
	ORQ          BX, R11
	ADDQ         $32, SI
	ADDQ         $8, CX
	SUBQ         $8, R13
	JLE          bwalk
	CMPQ         CX, $64
	JLT          bgroup

bwalk:
	TESTQ R11, R11
	JZ    bnext

bbit:
	TZCNTQ R11, DX
	ADDQ   DI, DX       // DX = the level's index
	MOVQ   DX, R10
	SUBQ   R8, R10      // the zeros before it
	SHRQ   $2, R10
	ADDQ   R10, AX
	LEAQ   1(DX), R8
	INCQ   R9
	LEAQ   -1(R11), DX
	ANDQ   DX, R11      // clear the lowest set bit
	JNZ    bbit

bnext:
	ADDQ  $64, DI
	TESTQ R13, R13
	JG    bchunk

	VEXTRACTI128 $1, Y14, X0
	VPADDQ       X14, X0, X0
	VPSHUFD      $0xee, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, BX
	TESTQ        R9, R9
	JZ           bempty
	SHLQ         $1, BX       // 2·Σe
	IMUL3Q       $2041, R9, R9
	SUBQ         R9, BX
	ADDQ         AX, BX
	ADDQ         $2, BX
	MOVQ         BX, ret+16(FP)
	VZEROUPPER
	RET

bempty: // no nonzero level: the coded-block flag alone
	MOVQ $1, ret+16(FP)
	VZEROUPPER
	RET
