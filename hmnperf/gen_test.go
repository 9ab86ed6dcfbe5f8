package main

import (
	"bytes"
	"testing"
	"time"
)

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, w := range []churnSpec{churnSmall, churnLarge} {
		w.Pool = min(w.Pool, 8)
		a, err := w.inputs(7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.inputs(7, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Reqs) != len(b.Reqs) || len(a.Ops) != len(b.Ops) || !bytes.Equal(a.Open, b.Open) {
			t.Fatalf("%s: same seed, different shapes", w.Name)
		}
		for i := range a.Reqs {
			if !bytes.Equal(a.Reqs[i].Body, b.Reqs[i].Body) {
				t.Fatalf("%s: request %d body differs", w.Name, i)
			}
		}
		for i := range a.Ops {
			if a.Ops[i] != b.Ops[i] {
				t.Fatalf("%s: op %d differs: %+v vs %+v", w.Name, i, a.Ops[i], b.Ops[i])
			}
		}
		c, err := w.inputs(8, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.Reqs[0].Body, c.Reqs[0].Body) {
			t.Errorf("%s: seeds 7 and 8 drew the same first body", w.Name)
		}
		if !bytes.Equal(a.Open, c.Open) {
			t.Errorf("%s: the cluster changed with the seed", w.Name)
		}
	}
}

func TestOpenLoopScheduleShape(t *testing.T) {
	ops, n := openLoopSchedule(300, 50*time.Millisecond, 10*time.Second, streamRNG(1, streamSchedule))
	if len(ops) != 2*n {
		t.Fatalf("%d ops for %d admissions", len(ops), n)
	}
	if n < 2700 || n > 3300 {
		t.Errorf("%d admissions in 10s at 300/s", n)
	}
	admitted := make([]bool, n)
	for i, o := range ops {
		if i > 0 && o.Due < ops[i-1].Due {
			t.Fatalf("op %d due %v before op %d due %v", i, o.Due, i-1, ops[i-1].Due)
		}
		switch o.Kind {
		case opAdmit:
			admitted[o.Env] = true
		case opRelease:
			if !admitted[o.Env] {
				t.Fatalf("release of %d scheduled before its admission", o.Env)
			}
		}
	}
}

func TestBacklogDetection(t *testing.T) {
	flat := make([]float64, 400)
	for i := range flat {
		flat[i] = 0.5 + 0.01*float64(i%3)
	}
	if grows, _ := backlogGrows(flat); grows {
		t.Error("steady lateness flagged as a growing backlog")
	}
	rising := make([]float64, 400)
	for i := range rising {
		rising[i] = float64(i) * 0.05
	}
	if grows, _ := backlogGrows(rising); !grows {
		t.Error("lateness rising to 20ms not flagged")
	}
}
