package codec

import "vcprof/internal/trace"

// refResidual and refReconstruct are the block kernels as they shipped
// before the flat rewrite, moved here verbatim (identifiers prefixed): a
// nested row/column loop with a bounds check per sample and a branchy
// clamp. They are the oracle of the differential tests.

func refResidual(tc *trace.Ctx, cur, pred []byte, w, h int, dst []int32) {
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			idx := j*w + i
			dst[idx] = int32(cur[idx]) - int32(pred[idx])
		}
	}
	n := w * h
	tc.Loads(pcResidualLoop, trace.ScratchBase+0x3000, n/4+2, 8, 8)
	tc.Stores(pcResidualLoop, trace.ScratchBase+0x3800, n/8+1, 8, 8)
	tc.Op(trace.OpAVX, n/8+1)
	tc.Op(trace.OpOther, h/2+1)
	tc.Loop(pcResidualLoop, (h+3)/4)
}

func refReconstruct(tc *trace.Ctx, pred []byte, res []int32, w, h int, dst []byte) {
	n := w * h
	for i := 0; i < n; i++ {
		v := int32(pred[i]) + res[i]
		if v < 0 {
			v = 0
		} else if v > 255 {
			v = 255
		}
		dst[i] = byte(v)
	}
	tc.Loads(pcReconLoop, trace.ScratchBase+0x3000, n/4+2, 8, 8)
	tc.Stores(pcReconLoop, trace.ScratchBase+0x3800, n/4+2, 8, 8)
	tc.Op(trace.OpAVX, n/4+1)
	tc.Op(trace.OpOther, h/2+1)
	tc.Loop(pcReconLoop, (h+3)/4)
}
