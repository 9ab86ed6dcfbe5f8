package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"

	"repro/internal/mapping"
)

// digester folds a sequence of mappings into two FNV-64a digests:
// placement (every guest's host node, in guest order) and paths (every
// virtual link's physical edge-ID path, length-prefixed, in link-ID
// order). The objective never depends on the paths chosen, so only the
// paths digest notices a routing change.
type digester struct {
	placement hash.Hash64
	paths     hash.Hash64
	buf       [4]byte
}

func newDigester() *digester {
	return &digester{placement: fnv.New64a(), paths: fnv.New64a()}
}

func (d *digester) word(h hash.Hash64, v int) {
	binary.LittleEndian.PutUint32(d.buf[:], uint32(int32(v)))
	h.Write(d.buf[:])
}

// add folds one mapping into both digests.
func (d *digester) add(m *mapping.Mapping) {
	d.word(d.placement, len(m.GuestHost))
	for _, n := range m.GuestHost {
		d.word(d.placement, int(n))
	}
	d.word(d.paths, len(m.LinkPath))
	for _, p := range m.LinkPath {
		d.word(d.paths, len(p.Edges))
		for _, e := range p.Edges {
			d.word(d.paths, e)
		}
	}
}

// digests is the pair of hex digests a digester produced.
type digests struct {
	Paths     string `json:"paths_digest"`
	Placement string `json:"placement_digest"`
}

func (d *digester) sums() digests {
	return digests{
		Paths:     fmt.Sprintf("%016x", d.paths.Sum64()),
		Placement: fmt.Sprintf("%016x", d.placement.Sum64()),
	}
}
