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
