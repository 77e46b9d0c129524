// Package kernel holds the codec's host kernels, the pixel and block
// routines with an AVX2 twin in assembly, and is the only package that
// knows a twin exists. Each routine is one selector: the Go loop where
// AVX2 is false (every platform but amd64, and an amd64 processor
// without it) or where the case is one the assembly does not take;
// otherwise the bounds proof, then the assembly call. Both sides
// produce the same bits, so nothing a run prints depends on which one
// ran, and the Go loops are the oracles the tests hold the assembly to.
// The routines take plain slices and report nothing: callers emit their
// own trace events.
//
// A selector's two halves are exported as well: …Generic, the Go loop,
// and …Kernel, the bounds proof and the call, which runs only where
// AVX2 is true. Codec code calls the selectors; the walls between the
// halves sit beside the callers, in codec, motion, transform, quant and
// rdo, with their shared helpers in kerneltest.
package kernel
