package main

import (
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Root is the ID of the
// request's root span (a root span is its own root); Parent is -1 for
// a root. Times are nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Root   int32  `json:"root"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A disabled
// recorder records nothing, so the untraced replay runs the same code
// without the bookkeeping.
type recorder struct {
	on    bool
	epoch time.Time
	spans []span
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, epoch: time.Now()}
}

// begin opens a span under parent (-1 for a new request root) and
// returns its ID, or -1 when the recorder is off.
func (r *recorder) begin(name string, parent int32) int32 {
	if !r.on {
		return -1
	}
	id := int32(len(r.spans))
	root := id
	if parent >= 0 {
		root = r.spans[parent].Root
	}
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Root: root, Start: int64(time.Since(r.epoch))})
	return id
}

// end closes span id.
func (r *recorder) end(id int32) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.epoch))
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the
// children's intervals, each clipped to [lo, hi).
func covered(lo, hi int64, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = x[0], x[1], true
			continue
		}
		curB = max(curB, x[1])
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums, per request root, the self time of every span with
// the given name, returning one figure per root in root order.
func selfByName(spans []span, self []int64, names ...string) map[int32]int64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[int32]int64)
	for i, s := range spans {
		if want[s.Name] {
			out[s.Root] += self[i]
		}
	}
	return out
}
