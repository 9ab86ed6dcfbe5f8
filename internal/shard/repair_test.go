package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/virtual"
)

// TestMigratedSplitFragmentUnrecoverable walks a split environment
// through a rebalance round and then an unrecoverable failure. The
// migration swaps the fragment's mapping inside its shard, so only the
// tag still names it; the failure must still take the whole environment
// down: the sibling fragment released, the gateway refunded, the
// registry entry gone.
//
// Fixture arithmetic: memory is the hard limit (CPU may oversubscribe),
// and every guest takes a quarter of a host's 64 GiB. A filler holding
// three quarters of one host lands on the tenant's hashed shard h; the
// split's first community (13 guests, 6500 MIPS against h's 6500 MIPS of
// router headroom) then fills h — one guest beside the filler, four on
// each other host — and its twin takes the other shard. Releasing the
// filler leaves one host nearly idle, which the rebalancer evens out.
// Losing any host afterwards leaves memory for 12 guests, one short of
// the fragment.
func TestMigratedSplitFragmentUnrecoverable(t *testing.T) {
	const quarter = 65536 / 4
	f := newTestFederation(t, 2, Config{GatewayBW: 10})
	sid, err := f.OpenTenant()
	if err != nil {
		t.Fatal(err)
	}
	filler := virtual.NewEnv()
	filler.AddGuest("filler", 1500, 3*quarter, 100)
	fillerID, fillerPl, err := f.Admit(sid, filler)
	if err != nil {
		t.Fatal(err)
	}
	h := fillerPl.Fragments[0].Shard

	v := virtual.NewEnv()
	for i := 0; i < 26; i++ {
		v.AddGuest(fmt.Sprintf("g%d", i), 500, quarter, 100)
	}
	for i := 0; i < 12; i++ {
		v.AddLink(virtual.GuestID(i), virtual.GuestID(i+1), 50, 1000)
		v.AddLink(virtual.GuestID(13+i), virtual.GuestID(14+i), 50, 1000)
	}
	v.AddLink(0, 13, 1, 1000) // the cut
	eid, pl, err := f.Admit(sid, v)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Split || len(pl.Fragments) != 2 || pl.Fragments[0].Shard == pl.Fragments[1].Shard {
		t.Fatalf("fixture expects a 2-way split: %+v", pl)
	}
	onH, sib := pl.Fragments[0], pl.Fragments[1]
	if sib.Shard == h {
		onH, sib = sib, onH
	}
	if onH.Shard != h || len(onH.Guests) != 13 || onH.Guests[0] != 0 {
		t.Fatalf("fixture expects the first community on shard %d: %+v", h, pl)
	}
	fragTag, sibling := onH.Tag, sib.Shard

	if err := f.Release(sid, fillerID); err != nil {
		t.Fatal(err)
	}
	moves, before, after, err := f.RebalanceOnce(h)
	if err != nil {
		t.Fatal(err)
	}
	if moves == 0 || after >= before {
		t.Fatalf("rebalance moved %d guests (%g -> %g); the fixture needs a migration", moves, before, after)
	}

	sh, _ := f.Shard(h)
	results, err := f.FailHost(h, sh.Cluster().HostNodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Outcome != core.RepairUnrecoverable || results[0].Tag != fragTag {
		t.Fatalf("results = %+v, want fragment %s unrecoverable", results, fragTag)
	}

	other, _ := f.Shard(sibling)
	other.run(func() {})
	if n := other.Session().Active(); n != 0 {
		t.Fatalf("sibling shard %d keeps %d fragments", sibling, n)
	}
	if n := sh.Session().Active(); n != 0 {
		t.Fatalf("failed shard %d keeps %d fragments", h, n)
	}
	if got := f.Gateway().InUse(); got != 0 {
		t.Fatalf("gateway in use = %g after the environment died, want 0", got)
	}
	for k, st := range f.Stats().Shards {
		if st.ActiveEnvs != 0 {
			t.Fatalf("router counts %d fragments on shard %d", st.ActiveEnvs, k)
		}
	}
	if ids, err := f.EnvIDs(sid); err != nil || len(ids) != 0 {
		t.Fatalf("registry after the loss: ids=%v err=%v", ids, err)
	}
	if err := f.Release(sid, eid); !errors.Is(err, ErrUnknownEnv) {
		t.Fatalf("release of the lost environment = %v, want ErrUnknownEnv", err)
	}
}
