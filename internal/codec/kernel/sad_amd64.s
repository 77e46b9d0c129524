#include "textflag.h"

// func sadAVX2(cur *byte, cstride int, ref *byte, rstride int, w, h int) int32
//
// The sum of absolute differences of two w×h byte blocks, w and h
// positive, rows cstride and rstride bytes apart. A row is covered by
// VPSADBW over 32- and 16-byte chunks, then one 8- and one 4-byte
// load, then single bytes: exactly w bytes of each row are read. The
// arithmetic is integer, so the sum equals the scalar loop's by
// construction; it is kept in 64-bit lanes and truncated on return,
// which is the scalar int32's wrap-around. The Go wrapper in
// sad.go proves the last byte of the last row lies inside both
// planes.
TEXT ·sadAVX2(SB), NOSPLIT, $0-52
	MOVQ  cur+0(FP), SI
	MOVQ  cstride+8(FP), R8
	MOVQ  ref+16(FP), DI
	MOVQ  rstride+24(FP), R9
	MOVQ  w+32(FP), R10
	MOVQ  h+40(FP), R11
	VPXOR Y0, Y0, Y0 // sums of the 32-byte chunks
	VPXOR X1, X1, X1 // sums of the narrower chunks
	XORL  AX, AX     // sum of the single bytes

row:
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ R10, CX
	SUBQ $32, CX // CX = bytes of this row left, less 32
	JLT  tail

chunk32:
	VMOVDQU (R12), Y2
	VPSADBW (R13), Y2, Y2
	VPADDQ  Y2, Y0, Y0
	ADDQ    $32, R12
	ADDQ    $32, R13
	SUBQ    $32, CX
	JGE     chunk32

tail:
	ADDQ $32, CX // CX = bytes left, under 32; each step below that
	JZ   next    // empties the row goes straight to the next one
	CMPQ CX, $16
	JLT  chunk8
	VMOVDQU (R12), X2
	VPSADBW (R13), X2, X2
	VPADDQ  X2, X1, X1
	ADDQ    $16, R12
	ADDQ    $16, R13
	SUBQ    $16, CX
	JZ      next

chunk8:
	CMPQ    CX, $8
	JLT     chunk4
	VMOVQ   (R12), X2
	VMOVQ   (R13), X3
	VPSADBW X3, X2, X2
	VPADDQ  X2, X1, X1
	ADDQ    $8, R12
	ADDQ    $8, R13
	SUBQ    $8, CX
	JZ      next

chunk4:
	CMPQ    CX, $4
	JLT     bytes
	VMOVD   (R12), X2
	VMOVD   (R13), X3
	VPSADBW X3, X2, X2
	VPADDQ  X2, X1, X1
	ADDQ    $4, R12
	ADDQ    $4, R13
	SUBQ    $4, CX
	JZ      next

bytes:
	MOVBLZX (R12), BX
	MOVBLZX (R13), DX
	SUBL    DX, BX
	MOVL    BX, DX
	NEGL    DX
	CMOVLGT DX, BX // BX = |cur − ref|
	ADDL    BX, AX
	INCQ    R12
	INCQ    R13
	DECQ    CX
	JNZ     bytes

next:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ R11
	JNZ  row

	VEXTRACTI128 $1, Y0, X2
	VPADDQ       X2, X0, X0
	VPADDQ       X1, X0, X0
	VPSHUFD      $0xee, X0, X2
	VPADDQ       X2, X0, X0
	VMOVQ        X0, BX
	ADDL         BX, AX
	MOVL         AX, ret+48(FP)
	VZEROUPPER
	RET

// func sadx4AVX2(cur *byte, cstride int, r0, r1, r2, r3 *byte, rstride, w, h int, sums *[4]int32)
//
// sadAVX2 at four reference blocks at once, w and h positive: each
// chunk of the current block is loaded once and VPSADBW'd against the
// same chunk of r0…r3, whose rows share rstride, and sums[k] is the sum
// against rk. A row is walked by one byte offset, CX, over the same
// 32-, 16-, 8- and 4-byte chunks and single bytes as sadAVX2, so
// exactly w bytes of each row of each block are read. Each block's
// partial sums live in the 64-bit lanes of its own YMM register: the
// narrower chunks are VEX.128 results, zero above the low lane, added
// at full width. Each sum is truncated to its low dword, the scalar
// int32's wrap-around, and the four go out in one 16-byte store. The Go wrapper in sad.go proves every block's first
// byte and the last byte of its last row lie inside their planes.
TEXT ·sadx4AVX2(SB), NOSPLIT, $0-80
	MOVQ  cur+0(FP), SI
	MOVQ  cstride+8(FP), R11
	MOVQ  r0+16(FP), DI
	MOVQ  r1+24(FP), R8
	MOVQ  r2+32(FP), R9
	MOVQ  r3+40(FP), R10
	MOVQ  rstride+48(FP), R12
	MOVQ  w+56(FP), R13
	MOVQ  h+64(FP), BX
	VPXOR Y0, Y0, Y0 // sums against r0…r3
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR X8, X8, X8 // zero: the single bytes are inserted into it

x4row:
	XORL CX, CX   // CX = offset into this row
	MOVQ R13, DX  // DX = bytes of this row left
	CMPQ DX, $32
	JLT  x4tail

x4chunk32:
	VMOVDQU (SI)(CX*1), Y9
	VPSADBW (DI)(CX*1), Y9, Y10
	VPADDQ  Y10, Y0, Y0
	VPSADBW (R8)(CX*1), Y9, Y10
	VPADDQ  Y10, Y1, Y1
	VPSADBW (R9)(CX*1), Y9, Y10
	VPADDQ  Y10, Y2, Y2
	VPSADBW (R10)(CX*1), Y9, Y10
	VPADDQ  Y10, Y3, Y3
	ADDQ    $32, CX
	SUBQ    $32, DX
	CMPQ    DX, $32
	JGE     x4chunk32

x4tail:
	TESTQ DX, DX // each step below that empties the row goes
	JZ    x4next // straight to the next one
	CMPQ  DX, $16
	JLT   x4chunk8
	VMOVDQU (SI)(CX*1), X9
	VPSADBW (DI)(CX*1), X9, X10
	VPADDQ  Y10, Y0, Y0
	VPSADBW (R8)(CX*1), X9, X10
	VPADDQ  Y10, Y1, Y1
	VPSADBW (R9)(CX*1), X9, X10
	VPADDQ  Y10, Y2, Y2
	VPSADBW (R10)(CX*1), X9, X10
	VPADDQ  Y10, Y3, Y3
	ADDQ    $16, CX
	SUBQ    $16, DX
	JZ      x4next

x4chunk8:
	CMPQ    DX, $8
	JLT     x4chunk4
	VMOVQ   (SI)(CX*1), X9
	VMOVQ   (DI)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y0, Y0
	VMOVQ   (R8)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y1, Y1
	VMOVQ   (R9)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y2, Y2
	VMOVQ   (R10)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y3, Y3
	ADDQ    $8, CX
	SUBQ    $8, DX
	JZ      x4next

x4chunk4:
	CMPQ    DX, $4
	JLT     x4bytes
	VMOVD   (SI)(CX*1), X9
	VMOVD   (DI)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y0, Y0
	VMOVD   (R8)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y1, Y1
	VMOVD   (R9)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y2, Y2
	VMOVD   (R10)(CX*1), X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y3, Y3
	ADDQ    $4, CX
	SUBQ    $4, DX
	JZ      x4next

x4bytes:
	VPINSRB $0, (SI)(CX*1), X8, X9
	VPINSRB $0, (DI)(CX*1), X8, X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y0, Y0
	VPINSRB $0, (R8)(CX*1), X8, X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y1, Y1
	VPINSRB $0, (R9)(CX*1), X8, X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y2, Y2
	VPINSRB $0, (R10)(CX*1), X8, X10
	VPSADBW X10, X9, X10
	VPADDQ  Y10, Y3, Y3
	INCQ    CX
	DECQ    DX
	JNZ     x4bytes

x4next:
	ADDQ R11, SI
	ADDQ R12, DI
	ADDQ R12, R8
	ADDQ R12, R9
	ADDQ R12, R10
	DECQ BX
	JNZ  x4row

	VEXTRACTI128 $1, Y0, X10
	VPADDQ       X10, X0, X0
	VEXTRACTI128 $1, Y1, X10
	VPADDQ       X10, X1, X1
	VEXTRACTI128 $1, Y2, X10
	VPADDQ       X10, X2, X2
	VEXTRACTI128 $1, Y3, X10
	VPADDQ       X10, X3, X3
	VPUNPCKLQDQ  X1, X0, X10 // the low lanes: r0's, r1's
	VPUNPCKHQDQ  X1, X0, X0  // the high lanes
	VPADDQ       X10, X0, X0 // r0's sum, r1's sum
	VPUNPCKLQDQ  X3, X2, X10
	VPUNPCKHQDQ  X3, X2, X2
	VPADDQ       X10, X2, X2 // r2's, r3's
	VPSHUFD      $0x08, X0, X0 // dwords 0 and 2, truncated, to 0 and 1
	VPSHUFD      $0x08, X2, X2
	VPUNPCKLQDQ  X2, X0, X0
	MOVQ         sums+72(FP), AX
	VMOVDQU      X0, (AX) // one store, which the caller's reads forward from
	VZEROUPPER
	RET
