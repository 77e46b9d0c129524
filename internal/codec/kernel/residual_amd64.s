#include "textflag.h"

// func residualAVX2(cur *byte, pred *byte, dst *int32, n int)
//
// dst[i] = cur[i] − pred[i] for i < n, n positive. VPMOVZXBD widens
// eight bytes of each source to eight int32 lanes and VPSUBD subtracts
// them, 32 samples a round and then 8 at a time; fewer than eight left
// go one at a time. Exactly n bytes of each source are read and n int32
// written. The differences lie in [−255, 255], so the lanes hold the
// Go loop's int32 values exactly. The Go wrapper in residual.go
// proves all three slices hold n samples.
TEXT ·residualAVX2(SB), NOSPLIT, $0-32
	MOVQ cur+0(FP), SI
	MOVQ pred+8(FP), DI
	MOVQ dst+16(FP), DX
	MOVQ n+24(FP), CX
	SUBQ $32, CX // CX = samples left, less 32
	JLT  tail8

chunk32:
	VPMOVZXBD (SI), Y0
	VPMOVZXBD 8(SI), Y1
	VPMOVZXBD 16(SI), Y2
	VPMOVZXBD 24(SI), Y3
	VPMOVZXBD (DI), Y4
	VPMOVZXBD 8(DI), Y5
	VPMOVZXBD 16(DI), Y6
	VPMOVZXBD 24(DI), Y7
	VPSUBD    Y4, Y0, Y0
	VPSUBD    Y5, Y1, Y1
	VPSUBD    Y6, Y2, Y2
	VPSUBD    Y7, Y3, Y3
	VMOVDQU   Y0, (DX)
	VMOVDQU   Y1, 32(DX)
	VMOVDQU   Y2, 64(DX)
	VMOVDQU   Y3, 96(DX)
	ADDQ      $32, SI
	ADDQ      $32, DI
	ADDQ      $128, DX
	SUBQ      $32, CX
	JGE       chunk32

tail8:
	ADDQ $24, CX // CX = samples left, less 8
	JLT  tail1

chunk8:
	VPMOVZXBD (SI), Y0
	VPMOVZXBD (DI), Y4
	VPSUBD    Y4, Y0, Y0
	VMOVDQU   Y0, (DX)
	ADDQ      $8, SI
	ADDQ      $8, DI
	ADDQ      $32, DX
	SUBQ      $8, CX
	JGE       chunk8

tail1:
	ADDQ $8, CX // CX = samples left, under 8
	JZ   done

bytes:
	MOVBLZX (SI), AX
	MOVBLZX (DI), BX
	SUBL    BX, AX
	MOVL    AX, (DX)
	INCQ    SI
	INCQ    DI
	ADDQ    $4, DX
	DECQ    CX
	JNZ     bytes

done:
	VZEROUPPER
	RET

// func tileSSEAVX2(a *int32, astride int, b *int32, bstride int, w, h int) int64
//
// The sum of squared differences of two w×h int32 blocks, w and h
// positive, rows astride and bstride samples apart. VPSUBD takes each
// difference in int32, wrapping as the Go expression a[i]−b[i] does;
// VPMULDQ squares the sign-extended even lanes, and again after VPSRLQ
// has moved the odd lanes down, into int64 products that VPADDQ sums
// with wrap-around, the Go loop's int64 arithmetic. A row is covered
// 8 lanes at a time, then one 4-lane chunk, then single samples, so
// exactly w samples of each row are read. The Go wrapper proves the
// last sample of the last row lies inside both slices.
TEXT ·tileSSEAVX2(SB), NOSPLIT, $0-56
	MOVQ  a+0(FP), SI
	MOVQ  astride+8(FP), R8
	MOVQ  b+16(FP), DI
	MOVQ  bstride+24(FP), R9
	MOVQ  w+32(FP), R10
	MOVQ  h+40(FP), R11
	SHLQ  $2, R8
	SHLQ  $2, R9
	VPXOR Y0, Y0, Y0 // sums of the 8-lane chunks
	VPXOR X3, X3, X3 // sums of the 4-lane chunks
	XORQ  AX, AX     // sum of the single samples

row:
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ R10, CX
	SUBQ $8, CX // CX = samples of this row left, less 8
	JLT  tail

chunk8:
	VMOVDQU (R12), Y1
	VPSUBD  (R13), Y1, Y1
	VPSRLQ  $32, Y1, Y2
	VPMULDQ Y1, Y1, Y1
	VPMULDQ Y2, Y2, Y2
	VPADDQ  Y1, Y0, Y0
	VPADDQ  Y2, Y0, Y0
	ADDQ    $32, R12
	ADDQ    $32, R13
	SUBQ    $8, CX
	JGE     chunk8

tail:
	ADDQ $8, CX // CX = samples left, under 8
	JZ   next
	CMPQ CX, $4
	JLT  singles
	VMOVDQU (R12), X1
	VPSUBD  (R13), X1, X1
	VPSRLQ  $32, X1, X2
	VPMULDQ X1, X1, X1
	VPMULDQ X2, X2, X2
	VPADDQ  X1, X3, X3
	VPADDQ  X2, X3, X3
	ADDQ    $16, R12
	ADDQ    $16, R13
	SUBQ    $4, CX
	JZ      next

singles:
	MOVL    (R12), BX
	SUBL    (R13), BX
	MOVLQSX BX, BX
	IMULQ   BX, BX
	ADDQ    BX, AX
	ADDQ    $4, R12
	ADDQ    $4, R13
	DECQ    CX
	JNZ     singles

next:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ R11
	JNZ  row

	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPADDQ       X3, X0, X0
	VPSHUFD      $0xee, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, BX
	ADDQ         BX, AX
	MOVQ         AX, ret+48(FP)
	VZEROUPPER
	RET
