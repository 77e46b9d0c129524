package machine

import "testing"

// TestXeonDerivedValues pins what the analytic model used to type out
// by hand: the derivations must keep producing those numbers, or every
// golden table moves.
func TestXeonDerivedValues(t *testing.T) {
	m := Xeon()
	if got := m.FlushCycles(); got != 20 {
		t.Errorf("FlushCycles() = %d, want 20", got)
	}
	if l1d, l2, llc := m.MissPenalties(); l1d != 8 || l2 != 26 || llc != 182 {
		t.Errorf("MissPenalties() = %d, %d, %d, want 8, 26, 182", l1d, l2, llc)
	}
}
