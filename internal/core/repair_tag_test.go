package core

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/virtual"
)

// TestRepairResultsCarryTags pins the identity the layers above core key
// their registries on: every fail-and-repair result names the evicted
// entry's admission tag, whatever the outcome, and a surviving
// environment stays releasable under that tag. The migrated case is the
// one a pointer-keyed registry gets wrong: MigrateGuests swapped the
// mapping just before the failure, so only the tag still matches.
func TestRepairResultsCarryTags(t *testing.T) {
	check := func(t *testing.T, s *Session, results []RepairResult, tag string, want RepairOutcome) {
		t.Helper()
		if len(results) != 1 {
			t.Fatalf("results = %+v, want one", results)
		}
		res := results[0]
		if res.Outcome != want {
			t.Fatalf("outcome %v (%v), want %v", res.Outcome, res.Err, want)
		}
		if res.Tag != tag {
			t.Fatalf("result tag %q, want %q", res.Tag, tag)
		}
		err := s.ReleaseTag(tag)
		if want == RepairUnrecoverable {
			if !errors.Is(err, ErrNotActive) {
				t.Fatalf("unrecoverable %s still releasable: %v", tag, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("replacement does not carry tag %s: %v", tag, err)
		}
	}

	t.Run("repaired", func(t *testing.T) {
		s, env := ringSession(t)
		m, _, err := s.MapTagged(env, "e7")
		if err != nil {
			t.Fatal(err)
		}
		victim := -1
		for _, p := range m.LinkPath {
			if p.Len() > 0 {
				victim = p.Edges[0]
				break
			}
		}
		if victim == -1 {
			t.Skip("no inter-host paths in this draw")
		}
		results, err := s.FailLinkAndRepair(victim)
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, results, "e7", RepairRepaired)
	})

	t.Run("replaced", func(t *testing.T) {
		_, s := sessionFixture(t)
		m, _, err := s.MapTagged(smallEnv(50, 40), "e3")
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.FailHostAndRepair(m.GuestHost[0])
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, results, "e3", RepairReplaced)
	})

	t.Run("unrecoverable", func(t *testing.T) {
		c := mustTorus(t, uniformSpecs(4, 2000, 1024, 1000), 2, 2)
		s, err := NewSession(c, cluster.VMMOverhead{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		env := virtual.NewEnv()
		for i := 0; i < 4; i++ {
			env.AddGuest("g", 100, 1000, 100)
		}
		m, _, err := s.MapTagged(env, "e9")
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.FailHostAndRepair(m.GuestHost[0])
		if err != nil {
			t.Fatal(err)
		}
		check(t, s, results, "e9", RepairUnrecoverable)
	})

	t.Run("migrated", func(t *testing.T) {
		s, h, _ := pileSession(t, 4)
		mig, err := s.MigrateGuests([]GuestMove{
			{Seq: 1, Guest: 1, From: h[0], To: h[1]},
			{Seq: 1, Guest: 2, From: h[0], To: h[2]},
			{Seq: 1, Guest: 3, From: h[0], To: h[3]},
		})
		if err != nil {
			t.Fatal(err)
		}
		results, err := s.FailHostAndRepair(h[1])
		if err != nil {
			t.Fatal(err)
		}
		if len(results) == 1 && results[0].Old != mig.Envs[0].New {
			t.Fatal("the eviction should name the migrated mapping")
		}
		check(t, s, results, "e1", RepairReplaced)
	})
}
