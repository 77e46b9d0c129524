#include "textflag.h"

// func satdAVX2(res *int32, stride, pairs, rows int) int32
//
// The halved 4×4 Hadamard SATDs of rows×pairs pairs of horizontally
// adjacent tiles, summed: rows rows of tiles, 4·stride samples apart,
// each holding pairs tile pairs (8 int32 samples of each of 4 rows),
// rows and pairs positive. One YMM register holds one row of a pair,
// a tile in each 128-bit lane. The column butterflies run across the
// four row registers; the row butterflies run inside each register, a
// VPSHUFD partner and a VPSIGND sign pattern per stage, so every lane
// ends holding one of the 16 outputs of satd4x4's butterflies, with
// the same int32 wrap-around. VPABSD then gives abs32's values
// (MinInt32 stays MinInt32). Each tile's 16 magnitudes are summed in
// its lane, halved and added to the total; int32 adds wrap and
// commute, so the order of the sums does not change them. Every output
// is a ± sum of all 16 samples, so all 16 share one parity and their
// magnitudes sum to an even number, wrapped or not: Go's / 2, which
// truncates toward zero, is then exactly VPSRAD $1. The halving is per
// tile, as in the Go loop; halving the wrapped total would not be. Exactly
// the samples of the tiles are read. The Go wrapper in satd.go
// proves the last sample lies inside the residual.
TEXT ·satdAVX2(SB), NOSPLIT, $0-36
	MOVQ     res+0(FP), SI
	MOVQ     stride+8(FP), R8
	MOVQ     pairs+16(FP), R10
	MOVQ     rows+24(FP), R11
	SHLQ     $2, R8            // a row, in bytes
	LEAQ     (R8)(R8*2), R9    // three rows
	LEAQ     (R8)(R8*1), DX    // two rows
	VPXOR    Y10, Y10, Y10     // the halved tile sums, in every dword of a lane
	VPCMPEQD Y9, Y9, Y9        // −1
	VPSRLD   $31, Y9, Y7       // 1
	VPSLLQ   $32, Y9, Y8
	VPOR     Y7, Y8, Y8        // (1, −1, 1, −1): the first row stage's signs
	VPSLLDQ  $8, Y9, Y9
	VPOR     Y7, Y9, Y9        // (1, 1, −1, −1): the second's

tilerow:
	MOVQ SI, R12
	MOVQ R10, CX

pair:
	VMOVDQU (R12), Y0
	VMOVDQU (R12)(R8*1), Y1
	VMOVDQU (R12)(DX*1), Y2
	VMOVDQU (R12)(R9*1), Y3

	// Column butterflies: (r0, r1, r2, r3) → r0+r1+r2+r3, r0−r2+r1−r3,
	// r0+r2−r1−r3, r0−r2−r1+r3.
	VPADDD Y2, Y0, Y4 // s0 = r0 + r2
	VPSUBD Y2, Y0, Y0 // s1 = r0 − r2
	VPADDD Y3, Y1, Y5 // s2 = r1 + r3
	VPSUBD Y3, Y1, Y1 // s3 = r1 − r3
	VPADDD Y5, Y4, Y2 // s0 + s2
	VPSUBD Y5, Y4, Y4 // s0 − s2
	VPADDD Y1, Y0, Y3 // s1 + s3
	VPSUBD Y1, Y0, Y0 // s1 − s3

	// Row butterflies on (a, b, c, d): (b, a, d, c) + (a, −b, c, −d) =
	// (a+b, a−b, c+d, c−d) = (p, m, q, n); then (q, n, p, m) +
	// (p, m, −q, −n) = (a+b+c+d, a−b+c−d, a+b−c−d, a−b−c+d).
	VPSHUFD $0xb1, Y2, Y5
	VPSIGND Y8, Y2, Y2
	VPADDD  Y5, Y2, Y2
	VPSHUFD $0xb1, Y3, Y5
	VPSIGND Y8, Y3, Y3
	VPADDD  Y5, Y3, Y3
	VPSHUFD $0xb1, Y4, Y5
	VPSIGND Y8, Y4, Y4
	VPADDD  Y5, Y4, Y4
	VPSHUFD $0xb1, Y0, Y5
	VPSIGND Y8, Y0, Y0
	VPADDD  Y5, Y0, Y0
	VPSHUFD $0x4e, Y2, Y5
	VPSIGND Y9, Y2, Y2
	VPADDD  Y5, Y2, Y2
	VPSHUFD $0x4e, Y3, Y5
	VPSIGND Y9, Y3, Y3
	VPADDD  Y5, Y3, Y3
	VPSHUFD $0x4e, Y4, Y5
	VPSIGND Y9, Y4, Y4
	VPADDD  Y5, Y4, Y4
	VPSHUFD $0x4e, Y0, Y5
	VPSIGND Y9, Y0, Y0
	VPADDD  Y5, Y0, Y0

	// Magnitudes, summed per tile, halved, added to the total.
	VPABSD  Y2, Y2
	VPABSD  Y3, Y3
	VPABSD  Y4, Y4
	VPABSD  Y0, Y0
	VPADDD  Y3, Y2, Y2
	VPADDD  Y0, Y4, Y4
	VPADDD  Y4, Y2, Y2
	VPSHUFD $0x4e, Y2, Y5
	VPADDD  Y5, Y2, Y2
	VPSHUFD $0xb1, Y2, Y5
	VPADDD  Y5, Y2, Y2 // every dword of a lane: its tile's sum
	VPSRAD  $1, Y2, Y2
	VPADDD  Y2, Y10, Y10

	ADDQ $32, R12
	DECQ CX
	JNZ  pair

	LEAQ (SI)(R8*4), SI
	DECQ R11
	JNZ  tilerow

	VEXTRACTI128 $1, Y10, X1
	VPADDD       X1, X10, X10
	VMOVD        X10, AX
	MOVL         AX, ret+32(FP)
	VZEROUPPER
	RET
