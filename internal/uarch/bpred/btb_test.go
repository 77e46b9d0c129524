package bpred

import "testing"

func TestBTBLearnsTargets(t *testing.T) {
	b, err := NewBTB(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := b.Lookup(0x4000); hit {
		t.Error("cold BTB hit")
	}
	b.Update(0x4000, 0x5000)
	tgt, hit := b.Lookup(0x4000)
	if !hit || tgt != 0x5000 {
		t.Errorf("Lookup = %#x/%v, want 0x5000/true", tgt, hit)
	}
	// Retarget.
	b.Update(0x4000, 0x6000)
	if tgt, _ := b.Lookup(0x4000); tgt != 0x6000 {
		t.Errorf("retarget failed: %#x", tgt)
	}
	if b.HitRate() <= 0 || b.HitRate() > 1 {
		t.Errorf("hit rate %v", b.HitRate())
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
	if used.Lookups != 0 || used.Hits != 0 {
		t.Errorf("counters after Reset: %d lookups, %d hits", used.Lookups, used.Hits)
	}
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
	if empty.HitRate() != 0 {
		t.Error("empty BTB hit rate not 0")
	}
}

func TestRASMatchedCalls(t *testing.T) {
	r, err := NewRAS(16)
	if err != nil {
		t.Fatal(err)
	}
	// Nested calls return in LIFO order.
	r.Push(0x100)
	r.Push(0x200)
	r.Push(0x300)
	for _, want := range []uint64{0x300, 0x200, 0x100} {
		got, ok := r.Pop(want)
		if !ok || got != want {
			t.Errorf("Pop = %#x/%v, want %#x/true", got, ok, want)
		}
	}
	if r.Mispredict != 0 {
		t.Errorf("mispredicts = %d on matched calls", r.Mispredict)
	}
	// Underflow mispredicts.
	if _, ok := r.Pop(0x400); ok {
		t.Error("empty RAS predicted correctly?")
	}
	if r.Mispredict != 1 {
		t.Errorf("mispredicts = %d, want 1", r.Mispredict)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r, err := NewRAS(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		r.Push(uint64(i * 0x100))
	}
	// Deepest two entries were clobbered; the newest four survive.
	for _, want := range []uint64{0x600, 0x500, 0x400, 0x300} {
		got, ok := r.Pop(want)
		if !ok || got != want {
			t.Errorf("Pop = %#x/%v, want %#x", got, ok, want)
		}
	}
	if _, ok := r.Pop(0x200); ok {
		t.Error("clobbered entry predicted correctly")
	}
	if _, err := NewRAS(0); err == nil {
		t.Error("accepted zero depth")
	}
}
