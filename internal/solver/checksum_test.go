package solver

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"locallab/internal/lcl"
)

// fnvReference is LabelingChecksum's definition written with hash/fnv:
// each label's bytes then a 0 byte, a 0xff byte between sections.
func fnvReference(l *lcl.Labeling) uint64 {
	h := fnv.New64a()
	for i, sec := range [][]lcl.Label{l.Node, l.Edge, l.Half} {
		if i > 0 {
			h.Write([]byte{0xff})
		}
		for _, lab := range sec {
			h.Write([]byte(lab))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// randomLabeling draws sections of up to maxLen labels of up to 12
// arbitrary bytes each (0x00, 0xff and non-ASCII included); empty labels
// and empty sections are frequent.
func randomLabeling(rng *rand.Rand, maxLen int) *lcl.Labeling {
	section := func() []lcl.Label {
		if rng.Intn(4) == 0 {
			return nil
		}
		out := make([]lcl.Label, rng.Intn(maxLen+1))
		for i := range out {
			b := make([]byte, rng.Intn(13))
			for j := range b {
				b[j] = byte(rng.Intn(256))
			}
			out[i] = lcl.Label(b)
		}
		return out
	}
	return &lcl.Labeling{Node: section(), Edge: section(), Half: section()}
}

// TestLabelingChecksumMatchesFNV pins the inlined hash to hash/fnv on
// random labelings, the empty labeling, and separator-like bytes.
func TestLabelingChecksumMatchesFNV(t *testing.T) {
	cases := []*lcl.Labeling{
		{},
		{Node: []lcl.Label{""}},
		{Edge: []lcl.Label{"", ""}},
		{Half: []lcl.Label{"\x00", "\xff", "é"}},
		{Node: []lcl.Label{"a\xff"}, Edge: []lcl.Label{"b"}},
		{Node: []lcl.Label{"a"}, Edge: []lcl.Label{"\xffb"}},
	}
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		cases = append(cases, randomLabeling(rng, 40))
	}
	for i, l := range cases {
		if got, want := LabelingChecksum(l), fnvReference(l); got != want {
			t.Fatalf("case %d: checksum %016x, hash/fnv %016x", i, got, want)
		}
	}
}

// TestLabelingChecksumAllocs: the checksum allocates nothing.
func TestLabelingChecksumAllocs(t *testing.T) {
	l := randomLabeling(rand.New(rand.NewSource(2)), 4000)
	if allocs := testing.AllocsPerRun(10, func() { LabelingChecksum(l) }); allocs != 0 {
		t.Fatalf("LabelingChecksum allocates %v times, want 0", allocs)
	}
}

// BenchmarkLabelingChecksum hashes about 12k labels.
func BenchmarkLabelingChecksum(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	l := &lcl.Labeling{}
	for _, sec := range []*[]lcl.Label{&l.Node, &l.Edge, &l.Half} {
		*sec = make([]lcl.Label, 4000)
		for i := range *sec {
			(*sec)[i] = lcl.Label(make([]byte, 8+rng.Intn(40)))
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		LabelingChecksum(l)
	}
}
