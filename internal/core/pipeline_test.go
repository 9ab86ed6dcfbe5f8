package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mapping"
	"repro/internal/workload"
)

// TestOneShotMatchesFreshSessionAdmission pins the single stage
// pipeline: a one-shot Map and the first admission on a fresh Session
// run the same stages on the same residuals, so they must place every
// guest on the same host and route every virtual link over the same
// physical edges — for HMN and HMN-C, on the switched fabric and the
// torus. (Later admissions may route differently: a release returns
// bandwidth with float rounding, so residuals drift bitwise from
// capacity.)
func TestOneShotMatchesFreshSessionAdmission(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specs := workload.GenerateHosts(workload.PaperClusterParams(), rng)
	fabrics := map[string]*cluster.Cluster{
		"switched": mustSwitched(t, specs),
		"torus":    mustTorus(t, specs, 8, 5),
	}
	mappers := map[string]func() Mapper{
		"HMN":   func() Mapper { return &HMN{} },
		"HMN-C": func() Mapper { return &Consolidator{} },
	}
	envs := []workload.VirtualParams{
		workload.HighLevelParams(60, 0.05),
		workload.LowLevelParams(120, 0.03),
	}
	for _, fabric := range []string{"switched", "torus"} {
		for _, name := range []string{"HMN", "HMN-C"} {
			for i, p := range envs {
				t.Run(fmt.Sprintf("%s/%s/env%d", fabric, name, i), func(t *testing.T) {
					c := fabrics[fabric]
					v := workload.GenerateEnv(p, rand.New(rand.NewSource(int64(20+i))))
					one, oneErr := mappers[name]().Map(c, v)
					s, err := NewSession(c, cluster.VMMOverhead{}, mappers[name]())
					if err != nil {
						t.Fatal(err)
					}
					adm, admErr := s.Map(v)
					if oneErr != nil || admErr != nil {
						t.Fatalf("one-shot err %v, session err %v", oneErr, admErr)
					}
					sameMapping(t, one, adm)
				})
			}
		}
	}
}

// sameMapping fails unless a and b agree on every guest's host and
// every virtual link's physical edges.
func sameMapping(t *testing.T, a, b *mapping.Mapping) {
	t.Helper()
	for g := range a.GuestHost {
		if a.GuestHost[g] != b.GuestHost[g] {
			t.Fatalf("guest %d: one-shot host %d, session host %d", g, a.GuestHost[g], b.GuestHost[g])
		}
	}
	for l := range a.LinkPath {
		ea, eb := a.LinkPath[l].Edges, b.LinkPath[l].Edges
		if len(ea) != len(eb) {
			t.Fatalf("link %d: one-shot path %v, session path %v", l, ea, eb)
		}
		for k := range ea {
			if ea[k] != eb[k] {
				t.Fatalf("link %d: one-shot path %v, session path %v", l, ea, eb)
			}
		}
	}
}
