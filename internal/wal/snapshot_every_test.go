package wal

import (
	"testing"
	"time"
)

// TestSnapshotEvery pins the one periodic-snapshot loop: it calls snap
// on its cadence, stop waits out the loop and may repeat, and a zero
// interval starts nothing.
func TestSnapshotEvery(t *testing.T) {
	calls := make(chan struct{}, 64)
	stop := SnapshotEvery(time.Millisecond, func() { calls <- struct{}{} })
	for i := 0; i < 3; i++ {
		select {
		case <-calls:
		case <-time.After(5 * time.Second):
			t.Fatal("the snapshot loop stopped calling")
		}
	}
	stop()
	stop()
	for len(calls) > 0 {
		<-calls
	}
	time.Sleep(5 * time.Millisecond)
	if n := len(calls); n != 0 {
		t.Fatalf("%d snapshots after stop", n)
	}

	ran := false
	stop = SnapshotEvery(0, func() { ran = true })
	time.Sleep(5 * time.Millisecond)
	stop()
	if ran {
		t.Fatal("a zero interval ran a snapshot")
	}
}
