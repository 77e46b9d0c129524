package cache

import "testing"

func TestNextLinePrefetcherFiresOnMiss(t *testing.T) {
	pf := NextLinePrefetcher{}
	if got := pf.OnAccess(0x1000, false); got != nil {
		t.Errorf("prefetch on hit: %v", got)
	}
	got := pf.OnAccess(0x1008, true)
	if len(got) != 1 || got[0] != 0x1040 {
		t.Errorf("next-line prefetch = %#x, want [0x1040]", got)
	}
}

func TestStridePrefetcherLearnsStride(t *testing.T) {
	pf := &StridePrefetcher{}
	var out []uint64
	// Constant 256-byte stride within one 4KB region.
	for i := 0; i < 8; i++ {
		out = pf.OnAccess(uint64(0x20000+i*256), true)
	}
	if len(out) == 0 {
		t.Fatal("stride prefetcher never fired on a stable stride")
	}
	if out[0] != 0x20000+8*256 {
		t.Errorf("first prefetch %#x, want next stride %#x", out[0], 0x20000+8*256)
	}
	// Random pattern must not fire.
	pf2 := &StridePrefetcher{}
	fired := false
	addrs := []uint64{0x30010, 0x30400, 0x30028, 0x30900, 0x30058}
	for _, a := range addrs {
		if len(pf2.OnAccess(a, true)) > 0 {
			fired = true
		}
	}
	if fired {
		t.Error("stride prefetcher fired on an unstable pattern")
	}
}

func TestPrefetchHierarchyReducesL2Misses(t *testing.T) {
	plain, err := NewXeonHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	pfh, err := NewPrefetchHierarchy(NextLinePrefetcher{})
	if err != nil {
		t.Fatal(err)
	}
	// Stream 1MB sequentially at 64B granularity twice through each.
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 16384; i++ {
			addr := uint64(0x4000000 + i*64)
			plain.Access(addr, false)
			pfh.Access(addr, false)
		}
	}
	const insts = 1_000_000
	_, plainL2, _ := plain.MPKI(insts)
	_, pfL2, _ := pfh.MPKI(insts)
	if pfL2 >= plainL2 {
		t.Errorf("prefetching L2 MPKI %v not below plain %v on a stream", pfL2, plainL2)
	}
	if pfh.Issued == 0 {
		t.Error("no prefetches issued")
	}
}
