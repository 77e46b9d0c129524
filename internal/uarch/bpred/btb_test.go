package bpred

import "testing"

func TestBTBLearnsTargets(t *testing.T) {
	b, err := NewBTB(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	lookup := func(pc uint64) uint64 {
		tgt, hit := b.Lookup(pc)
		if hit {
			hits++
		}
		return tgt
	}
	if lookup(0x4000); hits != 0 {
		t.Error("cold BTB hit")
	}
	b.Update(0x4000, 0x5000)
	if tgt := lookup(0x4000); hits != 1 || tgt != 0x5000 {
		t.Errorf("Lookup = %#x after %d hits, want 0x5000 after 1", tgt, hits)
	}
	// Retarget.
	b.Update(0x4000, 0x6000)
	if tgt := lookup(0x4000); hits != 2 || tgt != 0x6000 {
		t.Errorf("retarget: Lookup = %#x after %d hits, want 0x6000 after 2", tgt, hits)
	}
}

func TestBTBEvictsLRU(t *testing.T) {
	b, err := NewBTB(8, 2) // 4 sets × 2 ways
	if err != nil {
		t.Fatal(err)
	}
	// Three branches in the same set (stride = sets*4 in pc>>2 space).
	pcs := []uint64{0x1000, 0x1000 + 4*4, 0x1000 + 8*4}
	b.Update(pcs[0], 1)
	b.Update(pcs[1], 2)
	b.Lookup(pcs[0]) // refresh 0
	b.Update(pcs[2], 3)
	if _, hit := b.Lookup(pcs[0]); !hit {
		t.Error("recently used entry evicted")
	}
	if _, hit := b.Lookup(pcs[1]); hit {
		t.Error("LRU entry not evicted")
	}
}

func TestBTBResetRestoresCold(t *testing.T) {
	used, err := NewBTB(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewBTB(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pc := uint64(0x1000); pc < 0x1100; pc += 4 {
		used.Update(pc, pc+16)
		used.Lookup(pc)
	}
	used.Reset()
	hits := 0
	for pc := uint64(0x1000); pc < 0x1100; pc += 4 {
		if _, hit := used.Lookup(pc); hit {
			hits++
		}
	}
	if hits != 0 {
		t.Errorf("%d of 64 installed branches still hit after Reset", hits)
	}
	used.Reset()
	// Same answers and the same victims as a new BTB from here on.
	for i := uint64(0); i < 200; i++ {
		pc := 0x2000 + i*52%0x100
		ut, uh := used.Lookup(pc)
		ft, fh := fresh.Lookup(pc)
		if ut != ft || uh != fh {
			t.Fatalf("lookup %d of %#x: %#x/%v after Reset, %#x/%v on a new BTB", i, pc, ut, uh, ft, fh)
		}
		used.Update(pc, pc+i)
		fresh.Update(pc, pc+i)
	}
}

func TestBTBValidation(t *testing.T) {
	if _, err := NewBTB(100, 4); err == nil {
		t.Error("accepted non-power-of-two entries")
	}
	if _, err := NewBTB(128, 3); err == nil {
		t.Error("accepted non-dividing associativity")
	}
	empty, _ := NewBTB(8, 2)
	if _, hit := empty.Lookup(0); hit {
		t.Error("empty BTB hit on pc 0")
	}
}
