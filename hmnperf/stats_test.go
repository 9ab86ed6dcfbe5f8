package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailOfPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		wantP  float64
		wantV  float64
		beyond int
	}{
		{10000, 99.9, 9990, 10}, // p99.9 leaves exactly 10 samples beyond it
		{9999, 99, 9900, 99},    // one short of p99.9's ten
		{1000, 99, 990, 10},
		{999, 98, 980, 19},
		{200, 95, 190, 10},
		{100, 90, 90, 10},
		{40, 75, 30, 10},
		{20, 50, 10, 10},
		{19, 100, 19, 0}, // too few for any percentile: the maximum
		{3, 100, 3, 0},
	}
	for _, c := range cases {
		got := tailOf(ramp(c.n), 99.9)
		if got.Percentile != c.wantP || got.Value != c.wantV || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("n=%d: got %+v, want p%g value %g beyond %d", c.n, got, c.wantP, c.wantV, c.beyond)
		}
		if got.Percentile < 100 && got.Beyond < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, got.Percentile, got.Beyond)
		}
	}
}

func TestTailOfHonoursCap(t *testing.T) {
	if got := tailOf(ramp(10000), 99); got.Percentile != 99 || got.Value != 9900 {
		t.Fatalf("capped at p99: got %+v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {0, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	xs := make([]float64, 0, 5000)
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			v := float64(i%100) / 10 // p99 of a window is 9.8
			if w == 2 && i%16 == 0 {
				v = 500 // a stall: 63 slow samples in one window
			}
			xs = append(xs, v)
		}
	}
	got, w := windowedTail(xs, 99, 5)
	if w != 5 || got.Value != 9.8 || got.Percentile != 99 {
		t.Fatalf("windowedTail = %+v over %d windows, want p99 9.8 over 5", got, w)
	}
	if whole := tailOf(sortedCopy(xs), 99); whole.Value != 500 {
		t.Fatalf("whole-run p99 = %v, want the stall's 500", whole.Value)
	}
	if _, w := windowedTail(xs[:1500], 99, 5); w != 1 {
		t.Fatalf("1500 samples split into %d windows, want 1", w)
	}
}
