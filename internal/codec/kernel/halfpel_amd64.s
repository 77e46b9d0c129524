#include "textflag.h"

// func avg2AVX2(dst *byte, a *byte, b *byte, stride int, w, h int)
//
// dst[j*w+i] = (a[j*stride+i] + b[j*stride+i] + 1) >> 1 for a w×h block,
// w and h positive: the horizontal half-pel phase with b = a+1, the
// vertical one with b = a+stride. VPAVGB computes exactly that rounded
// mean of unsigned bytes. A row is covered by 32- and 16-byte chunks,
// one 8- and one 4-byte chunk, then single bytes, so exactly w bytes of
// each row of a and b are read and w bytes of dst written per row. The
// Go wrapper in halfpel.go proves the last byte of each block
// lies inside its slice.
TEXT ·avg2AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ stride+24(FP), R8
	MOVQ w+32(FP), R10
	MOVQ h+40(FP), R11

row:
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ R10, CX
	SUBQ $32, CX // CX = bytes of this row left, less 32
	JLT  tail

chunk32:
	VMOVDQU (R12), Y0
	VPAVGB  (R13), Y0, Y0
	VMOVDQU Y0, (DX)
	ADDQ    $32, R12
	ADDQ    $32, R13
	ADDQ    $32, DX
	SUBQ    $32, CX
	JGE     chunk32

tail:
	ADDQ $32, CX // CX = bytes left, under 32
	JZ   next
	CMPQ CX, $16
	JLT  chunk8
	VMOVDQU (R12), X0
	VPAVGB  (R13), X0, X0
	VMOVDQU X0, (DX)
	ADDQ    $16, R12
	ADDQ    $16, R13
	ADDQ    $16, DX
	SUBQ    $16, CX
	JZ      next

chunk8:
	CMPQ   CX, $8
	JLT    chunk4
	VMOVQ  (R12), X0
	VMOVQ  (R13), X1
	VPAVGB X1, X0, X0
	VMOVQ  X0, (DX)
	ADDQ   $8, R12
	ADDQ   $8, R13
	ADDQ   $8, DX
	SUBQ   $8, CX
	JZ     next

chunk4:
	CMPQ   CX, $4
	JLT    bytes
	VMOVD  (R12), X0
	VMOVD  (R13), X1
	VPAVGB X1, X0, X0
	VMOVD  X0, (DX)
	ADDQ   $4, R12
	ADDQ   $4, R13
	ADDQ   $4, DX
	SUBQ   $4, CX
	JZ     next

bytes:
	MOVBLZX (R12), AX
	MOVBLZX (R13), BX
	LEAL    1(AX)(BX*1), AX
	SHRL    $1, AX
	MOVB    AX, (DX)
	INCQ    R12
	INCQ    R13
	INCQ    DX
	DECQ    CX
	JNZ     bytes

next:
	ADDQ R8, SI
	ADDQ R8, DI
	DECQ R11
	JNZ  row
	VZEROUPPER
	RET

// func avg4AVX2(dst *byte, src *byte, stride int, w, h int)
//
// dst[j*w+i] = (s[i] + s[i+1] + t[i] + t[i+1] + 2) >> 2, where s is row
// j of src and t row j+1 (stride bytes on), for a w×h block, w and h
// positive: the diagonal half-pel phase. Two chained VPAVGBs round
// twice and can differ by one, so the four taps are widened to 16-bit
// lanes (VPMOVZXBW), summed with the 2 — at most 4·255+2, no overflow —
// shifted right by 2 and packed back (VPACKUSWB; every lane is ≤ 255,
// so the saturation never bites). A row is covered by 16-byte chunks,
// one 8- and one 4-byte chunk, then single bytes, so exactly w+1 bytes
// of rows j and j+1 are read and w bytes of dst written per row. The
// Go wrapper proves the last byte of each block lies inside its slice.
TEXT ·avg4AVX2(SB), NOSPLIT, $0-40
	MOVQ     dst+0(FP), DX
	MOVQ     src+8(FP), SI
	MOVQ     stride+16(FP), R8
	MOVQ     w+24(FP), R10
	MOVQ     h+32(FP), R11
	VPCMPEQW Y7, Y7, Y7
	VPSRLW   $15, Y7, Y7
	VPADDW   Y7, Y7, Y7 // 2 in every 16-bit lane

row:
	MOVQ SI, R12
	LEAQ (SI)(R8*1), R13
	MOVQ R10, CX
	SUBQ $16, CX // CX = bytes of this row left, less 16
	JLT  tail

chunk16:
	VPMOVZXBW    (R12), Y0
	VPMOVZXBW    1(R12), Y1
	VPMOVZXBW    (R13), Y2
	VPMOVZXBW    1(R13), Y3
	VPADDW       Y1, Y0, Y0
	VPADDW       Y3, Y2, Y2
	VPADDW       Y7, Y0, Y0
	VPADDW       Y2, Y0, Y0
	VPSRLW       $2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKUSWB    X1, X0, X0
	VMOVDQU      X0, (DX)
	ADDQ         $16, R12
	ADDQ         $16, R13
	ADDQ         $16, DX
	SUBQ         $16, CX
	JGE          chunk16

tail:
	ADDQ $16, CX // CX = bytes left, under 16
	JZ   next
	CMPQ CX, $8
	JLT  chunk4
	VPMOVZXBW (R12), X0
	VPMOVZXBW 1(R12), X1
	VPMOVZXBW (R13), X2
	VPMOVZXBW 1(R13), X3
	VPADDW    X1, X0, X0
	VPADDW    X3, X2, X2
	VPADDW    X7, X0, X0
	VPADDW    X2, X0, X0
	VPSRLW    $2, X0, X0
	VPACKUSWB X0, X0, X0
	VMOVQ     X0, (DX)
	ADDQ      $8, R12
	ADDQ      $8, R13
	ADDQ      $8, DX
	SUBQ      $8, CX
	JZ        next

chunk4:
	CMPQ      CX, $4
	JLT       bytes
	VMOVD     (R12), X0
	VMOVD     1(R12), X1
	VMOVD     (R13), X2
	VMOVD     1(R13), X3
	VPMOVZXBW X0, X0
	VPMOVZXBW X1, X1
	VPMOVZXBW X2, X2
	VPMOVZXBW X3, X3
	VPADDW    X1, X0, X0
	VPADDW    X3, X2, X2
	VPADDW    X7, X0, X0
	VPADDW    X2, X0, X0
	VPSRLW    $2, X0, X0
	VPACKUSWB X0, X0, X0
	VMOVD     X0, (DX)
	ADDQ      $4, R12
	ADDQ      $4, R13
	ADDQ      $4, DX
	SUBQ      $4, CX
	JZ        next

bytes:
	MOVBLZX (R12), AX
	MOVBLZX 1(R12), BX
	ADDL    BX, AX
	MOVBLZX (R13), BX
	ADDL    BX, AX
	MOVBLZX 1(R13), BX
	LEAL    2(AX)(BX*1), AX
	SHRL    $2, AX
	MOVB    AX, (DX)
	INCQ    R12
	INCQ    R13
	INCQ    DX
	DECQ    CX
	JNZ     bytes

next:
	ADDQ R8, SI
	DECQ R11
	JNZ  row
	VZEROUPPER
	RET
