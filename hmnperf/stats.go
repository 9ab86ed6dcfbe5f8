package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail figure may report, highest
// first. The highest one with at least minBeyond samples above it wins.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankOf is the 1-based nearest-rank index of percentile p in n
// samples. The epsilon keeps float error in p/100*n (99.9% of 10000 is
// 9990.000000000002) from bumping an exact rank up by one.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// tail is a tail-latency figure and the rule that produced it.
type tail struct {
	Value      float64
	Percentile float64 // 100 means the maximum
	Samples    int
	Beyond     int
}

func (t tail) String() string {
	if t.Percentile == 100 {
		return fmt.Sprintf("the maximum of %d samples (too few for a percentile with %d beyond it)", t.Samples, minBeyond)
	}
	return fmt.Sprintf("p%g of %d samples (%d beyond)", t.Percentile, t.Samples, t.Beyond)
}

// tailOf returns the highest ladder percentile, capped at maxP, that
// has at least minBeyond samples beyond it. With too few samples for
// any of them it returns the maximum.
func tailOf(sorted []float64, maxP float64) tail {
	n := len(sorted)
	for _, p := range tailLadder {
		if p > maxP {
			continue
		}
		if k := rankOf(p, n); n-k >= minBeyond {
			return tail{Value: sorted[k-1], Percentile: p, Samples: n, Beyond: n - k}
		}
	}
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	return tail{Value: sorted[n-1], Percentile: 100, Samples: n}
}

// windowSize is the fewest samples a window holds before windowedTail
// splits a run: enough for p99 to keep ten samples beyond it.
const windowSize = 1000

// windowedTail splits samples (in arrival order) into up to maxWindows
// consecutive windows of at least windowSize samples, takes each
// window's tail by tailOf, and returns the median window. A stall that
// hits one window moves one window's figure, not the run's.
func windowedTail(samples []float64, maxP float64, maxWindows int) (tail, int) {
	w := max(1, min(maxWindows, len(samples)/windowSize))
	tails := make([]tail, w)
	for i := range tails {
		tails[i] = tailOf(sortedCopy(samples[i*len(samples)/w:(i+1)*len(samples)/w]), maxP)
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].Value < tails[j].Value })
	return tails[rankOf(50, w)-1], w
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank 50th percentile of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// mean is the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
