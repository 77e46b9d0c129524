package kernel

import (
	"os"
	"strings"
	"testing"
)

// TestProbeMatchesKernelReport checks the probe against the operating
// system's own reading of the same CPUID bits, and logs which side of
// the kernel dispatch this host is on.
func TestProbeMatchesKernelReport(t *testing.T) {
	t.Logf("AVX2 kernels selected: %v", AVX2)
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare against: %v", err)
	}
	_, rest, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo lists no x86 feature flags")
	}
	flags, _, _ := strings.Cut(rest, "\n")
	want := false
	for _, f := range strings.Fields(flags) {
		want = want || f == "avx2"
	}
	if AVX2 != want {
		t.Fatalf("probe says AVX2=%v, /proc/cpuinfo says %v", AVX2, want)
	}
}
