package server

import (
	"testing"

	"repro/internal/wal"
)

// TestFailedRecoverLeavesLogIntact pins that a recovery refusal is not
// destructive: the daemon that refused to serve closes its log without
// the shutdown snapshot, so the records it could not replay are still
// on disk for an operator (or a fixed binary) to examine.
func TestFailedRecoverLeavesLogIntact(t *testing.T) {
	_, cs := testbed(t)
	dir := t.TempDir()
	w, _, err := wal.Open(dir, wal.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []wal.Record{
		{Kind: wal.KindOpen, SID: "s1", Open: &wal.OpenRec{Cluster: cs, Mapper: "HMN"}},
		{Kind: wal.KindRelease, SID: "s2", Index: 1, Release: &wal.ReleaseRec{Seq: 1}},
	}
	for i := range recs {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	s := New(durableConfig(t, dir))
	if err := s.Recover(); err == nil {
		t.Fatal("Recover accepted a record for an unknown session")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := wal.Scan(dir, wal.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Snapshot != nil || len(got.Records) != len(recs) {
		t.Fatalf("after a refused recovery: snapshot %+v, %d records, want none and %d",
			got.Snapshot, len(got.Records), len(recs))
	}
}
