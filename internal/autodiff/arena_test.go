package autodiff

import "testing"

func TestArenaFirstSlabSizedByDemand(t *testing.T) {
	// A one-shot tape that records one small constant holds a slab sized
	// to that demand, not a full floatSlabLen one.
	tp := NewArenaTape()
	tp.NewConstBuf(2, 3)
	held := 0
	for _, slab := range tp.arena.slabs {
		held += len(slab)
	}
	if held == 0 || held >= floatSlabLen {
		t.Fatalf("tape holding one 2x3 constant has %d floats of slab, want 1..%d", held, floatSlabLen-1)
	}
}
