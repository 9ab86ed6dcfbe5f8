package main

import "testing"

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "admit", ID: 0, Parent: -1, Root: 0, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Root: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Root: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Root: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "d", ID: 4, Parent: 2, Root: 0, Start: 25, End: 35},  // grandchild
	}
	self := selfTimes(spans)
	// admit: 100 - ([10,50] + [90,100]) = 50; b: 30 - 10 = 20.
	want := []int64{50, 20, 20, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	by := selfByName(spans, self, "a", "b")
	if by[0] != 40 {
		t.Errorf("self of a+b under root 0 = %d, want 40", by[0])
	}
}

func TestSelfTimeWithoutChildrenIsDuration(t *testing.T) {
	spans := []span{{Name: "x", ID: 0, Parent: -1, Start: 5, End: 17}}
	if got := selfTimes(spans)[0]; got != 12 {
		t.Fatalf("self = %d, want 12", got)
	}
}

func TestRecorderNestsUnderRoot(t *testing.T) {
	r := newRecorder(true)
	root := r.begin("admit", -1)
	c := r.begin("core.map", root)
	g := r.begin("wal.append", c)
	r.end(g)
	r.end(c)
	r.end(root)
	for _, s := range r.spans {
		if s.Root != root || s.End < s.Start {
			t.Fatalf("span %+v: want root %d and end >= start", s, root)
		}
	}
	off := newRecorder(false)
	if id := off.begin("admit", -1); id != -1 || len(off.spans) != 0 {
		t.Fatalf("disabled recorder recorded span %d", id)
	}
}
