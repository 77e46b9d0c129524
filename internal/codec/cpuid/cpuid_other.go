//go:build !amd64

// Package cpuid answers the one question the codec's host kernels ask
// of the machine: can it run AVX2 code. Only amd64 can.
package cpuid

// AVX2 is false off amd64: every kernel's Go loop is the only path.
const AVX2 = false
