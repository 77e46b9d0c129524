package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"vcprof/internal/obs"
)

// render runs WriteProm into a string, failing the test on error.
func render(t *testing.T, opts PromOptions) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteProm(&b, opts); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// testHist registers an ad-hoc histogram and removes it again when the
// test ends, so test names never leak into the golden exposition
// capture that shares this test binary.
func testHist(t *testing.T, name string, bounds []uint64, volatile bool) *obs.Histogram {
	t.Helper()
	t.Cleanup(func() { obs.UnregisterHistogram(name) })
	if volatile {
		return obs.NewVolatileHistogram(name, bounds)
	}
	return obs.NewHistogram(name, bounds)
}

// TestWritePromHistogram pins the exposition grammar for one
// histogram: vcprof_ prefix, dots to underscores, cumulative buckets,
// +Inf, _sum and _count.
func TestWritePromHistogram(t *testing.T) {
	h := testHist(t, "test.prom.hist", []uint64{10, 100}, false)
	for _, v := range []uint64{5, 50, 50, 500} {
		h.Observe(v)
	}
	out := render(t, PromOptions{})
	want := strings.Join([]string{
		"# TYPE vcprof_test_prom_hist histogram",
		`vcprof_test_prom_hist_bucket{le="10"} 1`,
		`vcprof_test_prom_hist_bucket{le="100"} 3`,
		`vcprof_test_prom_hist_bucket{le="+Inf"} 4`,
		"vcprof_test_prom_hist_sum 605",
		"vcprof_test_prom_hist_count 4",
		"",
	}, "\n")
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing histogram block:\n--- want ---\n%s--- got ---\n%s", want, out)
	}
}

// TestWritePromVolatileSplit pins the deterministic/volatile contract:
// the default render is the deterministic subset; volatile metrics and
// gauges appear only when asked for.
func TestWritePromVolatileSplit(t *testing.T) {
	testHist(t, "test.prom.det", []uint64{1}, false).Observe(1)
	testHist(t, "test.prom.vol", []uint64{1}, true).Observe(1)

	det := render(t, PromOptions{})
	if strings.Contains(det, "vcprof_test_prom_vol") {
		t.Error("volatile histogram leaked into deterministic exposition")
	}
	if !strings.Contains(det, "vcprof_test_prom_det") {
		t.Error("deterministic histogram missing")
	}
	if strings.Contains(det, "gauge") {
		t.Error("deterministic exposition contains gauges")
	}

	full := render(t, PromOptions{
		IncludeVolatile: true,
		Gauges: []GaugeSample{
			{Name: "z.gauge", Value: 2.5},
			{Name: "a.gauge", Value: 3},
		},
	})
	for _, wantLine := range []string{
		"vcprof_test_prom_vol_count 1",
		"# TYPE vcprof_a_gauge gauge\nvcprof_a_gauge 3\n",
		"# TYPE vcprof_z_gauge gauge\nvcprof_z_gauge 2.5\n",
	} {
		if !strings.Contains(full, wantLine) {
			t.Errorf("full exposition missing %q:\n%s", wantLine, full)
		}
	}
	// Gauges render sorted by name regardless of input order.
	if strings.Index(full, "vcprof_a_gauge") > strings.Index(full, "vcprof_z_gauge") {
		t.Error("gauges not sorted by name")
	}
}

// TestWritePromByteStable pins the byte-stability contract directly:
// two renders of the same registry state are identical bytes, families
// are sorted, and no timestamps appear.
func TestWritePromByteStable(t *testing.T) {
	testHist(t, "test.prom.b", []uint64{1, 2}, false).Observe(1)
	testHist(t, "test.prom.a", []uint64{1, 2}, false).Observe(2)
	opts := PromOptions{}
	r1, r2 := render(t, opts), render(t, opts)
	if r1 != r2 {
		t.Fatal("two renders of identical state differ")
	}
	if strings.Index(r1, "vcprof_test_prom_a") > strings.Index(r1, "vcprof_test_prom_b") {
		t.Error("histogram families not sorted by name")
	}
	for _, line := range strings.Split(strings.TrimSuffix(r1, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if n := len(strings.Fields(line)); n != 2 {
			t.Errorf("sample line %q has %d fields, want 2 (no timestamps)", line, n)
		}
	}
}

// TestRenderHistogramHuman pins the human dump: quantile summary line
// plus one bar per non-empty bucket.
func TestRenderHistogramHuman(t *testing.T) {
	h := testHist(t, "test.prom.human", []uint64{10, 100, 1000}, true)
	for i := uint64(0); i < 20; i++ {
		h.Observe(i * 30)
	}
	out := RenderHistogram(h.Snapshot(), "ms")
	for _, want := range []string{"test.prom.human", "count 20", "p50 ", "p95 ", "p99 ", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("human render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `le       10ms         0`) {
		t.Errorf("zero buckets should be elided:\n%s", out)
	}
}

// TestSharedBucketLayouts is the check on the exported layouts the
// serving layer and the load generator share: non-empty and strictly
// increasing. Layouts passed to obs.NewHistogram are also checked by
// its registration panic.
func TestSharedBucketLayouts(t *testing.T) {
	for name, bs := range map[string][]uint64{
		"LatencyBucketsMS": LatencyBucketsMS,
		"TickBuckets":      TickBuckets,
		"LookupBucketsUS":  LookupBucketsUS,
	} {
		if len(bs) == 0 {
			t.Errorf("%s empty", name)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Errorf("%s not strictly increasing at %d", name, i)
			}
		}
	}
}
