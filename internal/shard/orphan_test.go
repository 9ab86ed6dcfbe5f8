package shard

import (
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// TestOrphanReleaseReplays pins that recovery's orphan cleanup is as
// durable as any release: the record the WAL hook logs for it carries a
// real operation index, so a plain replay of the shard directory (what
// `hmnwal verify` runs, and what the next recovery starts from) already
// has the orphan released — no final snapshot needed.
func TestOrphanReleaseReplays(t *testing.T) {
	dir := t.TempDir()
	f, err := New(testClusters(t, 2), Config{DataDir: dir, GatewayBW: 10})
	if err != nil {
		t.Fatal(err)
	}
	sid, _ := f.OpenTenant()
	_, pl, err := f.Admit(sid, splitEnv(50))
	if err != nil {
		t.Fatal(err)
	}
	gone, orphan := pl.Fragments[0], pl.Fragments[1]
	sh, _ := f.Shard(gone.Shard)
	sh.run(func() {})
	export := sh.Session().Export()
	var seq uint64
	for _, a := range export.Active {
		if a.Tag == gone.Tag {
			seq = a.Seq
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge the crash: one fragment's release reached its log, the
	// sibling's never did.
	w, _, err := wal.Open(filepath.Join(dir, shardSID(gone.Shard)), wal.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&wal.Record{Kind: wal.KindRelease, SID: shardSID(gone.Shard), Index: export.OpCount + 1, Release: &wal.ReleaseRec{Seq: seq}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Barrier(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	r, err := Recover(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Read the orphan's shard directory as a replay would, while the
	// recovered federation is still up (a kill now loses no snapshot).
	recovered, err := wal.Scan(filepath.Join(dir, shardSID(orphan.Shard)), wal.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := wal.Rebuild(recovered)
	if err != nil {
		t.Fatal(err)
	}
	if n := rb.Sessions[0].Core.Active(); n != 0 {
		t.Fatalf("replaying shard %d's log keeps %d fragments; the orphan release did not replay", orphan.Shard, n)
	}
}
