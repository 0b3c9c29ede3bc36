package solver

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
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

// longLabel returns an n-byte label drawn from rng, every byte value
// possible (0x00 and 0xff included).
func longLabel(rng *rand.Rand, n int) lcl.Label {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return lcl.Label(b)
}

// TestLabelingChecksumMemoMatchesFNV pins the memoized path (labels of at
// least fnvMemoMinLen bytes) to hash/fnv on labelings built to reach
// it: one label in a long run, one label entered from every low-byte
// state, interleaved distinct labels, equal labels on separate backing
// arrays, 0x00/0xff bytes inside, labels right at the length cut, and
// enough distinct (label, low byte) pairs to grow the memo.
func TestLabelingChecksumMemoMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	long := longLabel(rng, 170)
	sep := lcl.Label("\x00\xff" + strings.Repeat("{\"s\":[1,2],\"iv\":\"\"}", 4) + "\xff\x00")
	distinct := make([]lcl.Label, 6)
	for i := range distinct {
		distinct[i] = longLabel(rng, fnvMemoMinLen+rng.Intn(900))
	}

	cases := map[string]*lcl.Labeling{}
	run := make([]lcl.Label, 300)
	for i := range run {
		run[i] = long
	}
	cases["run-300"] = &lcl.Labeling{Node: run, Edge: run[:40], Half: run[:7]}

	// Before each occurrence a 1-byte label steers the state's low byte:
	// hashing "b\x00" from low byte lo ends on ((lo^b)·P²) & 0xff, which
	// takes every value as b does. Every state is entered twice, the
	// second time from the memo.
	var steered []lcl.Label
	h := uint64(fnvOffset64)
	for rep := 0; rep < 2; rep++ {
		for want := 0; want < 256; want++ {
			for b := 0; b < 256; b++ {
				if byte(((h&0xff)^uint64(b))*fnvPrime64*fnvPrime64) == byte(want) {
					steered = append(steered, lcl.Label([]byte{byte(b)}), long)
					h = fnvLabel(fnvLabel(h, lcl.Label([]byte{byte(b)})), long)
					break
				}
			}
		}
	}
	if len(steered) != 2*2*256 {
		t.Fatalf("steered %d labels, want %d", len(steered), 2*2*256)
	}
	cases["every-low-byte"] = &lcl.Labeling{Node: steered}

	var mixed []lcl.Label
	for range 3000 {
		mixed = append(mixed, distinct[rng.Intn(len(distinct))])
		if rng.Intn(3) == 0 {
			mixed = append(mixed, lcl.Label(fmt.Sprint(rng.Intn(5))))
		}
	}
	cases["interleaved"] = &lcl.Labeling{Node: mixed, Edge: mixed[:500], Half: mixed[1000:]}

	// strings.Clone gives each copy its own bytes: the checksum must key
	// the memo by content, not by backing array.
	var copies []lcl.Label
	for i := range 600 {
		lab := distinct[i%2]
		if i%3 != 0 {
			lab = lcl.Label(strings.Clone(string(lab)))
		}
		copies = append(copies, lab)
	}
	cases["separate-backing"] = &lcl.Labeling{Node: copies, Half: copies}

	var zeros []lcl.Label
	for i := range 500 {
		zeros = append(zeros, sep, lcl.Label(bytes.Repeat([]byte{0}, fnvMemoMinLen+i%3)),
			lcl.Label(bytes.Repeat([]byte{0xff}, fnvMemoMinLen-1+i%2)), "")
	}
	cases["zero-ff-bytes"] = &lcl.Labeling{Node: zeros, Edge: zeros}

	var many []lcl.Label
	for range 40 {
		lab := longLabel(rng, fnvMemoMinLen)
		for range 200 {
			many = append(many, lab, lcl.Label([]byte{byte(rng.Intn(256))}))
		}
	}
	cases["memo-growth"] = &lcl.Labeling{Node: many}

	for name, l := range cases {
		for pass := 0; pass < 2; pass++ { // the second pass reuses a pooled memo
			if got, want := LabelingChecksum(l), fnvReference(l); got != want {
				t.Fatalf("%s pass %d: checksum %016x, hash/fnv %016x", name, pass, got, want)
			}
		}
	}
}

// FuzzLabelingChecksum differential-tests the checksum against hash/fnv.
// pool splits at '|' into labels; each layout byte appends one of them
// to the current section: bit 7 stretches it past the memo's length
// cut, bit 6 copies it onto its own backing array, and 0x3f moves to the
// next section.
func FuzzLabelingChecksum(f *testing.F) {
	f.Add("a|\x00\xff|{\"s\":[1]}|", []byte{0x80, 0x80, 0xc0, 0x81, 0x3f, 0x82, 0x02, 0x3f, 0x83, 0x80})
	f.Add(strings.Repeat("x", 40), bytes.Repeat([]byte{0x80}, 300))
	f.Add("", []byte{0x00, 0x80, 0x3f, 0x3f, 0x40})
	f.Fuzz(func(t *testing.T, pool string, layout []byte) {
		if len(layout) > 1<<12 {
			layout = layout[:1<<12]
		}
		pieces := strings.Split(pool, "|")
		stretched := make([]lcl.Label, len(pieces))
		for i, p := range pieces {
			if p == "" {
				p = "\x00"
			}
			stretched[i] = lcl.Label(strings.Repeat(p, fnvMemoMinLen/len(p)+1))
		}
		l := &lcl.Labeling{}
		secs := []*[]lcl.Label{&l.Node, &l.Edge, &l.Half}
		sec := 0
		for _, b := range layout {
			if b&0x3f == 0x3f {
				if sec++; sec == len(secs) {
					break
				}
				continue
			}
			i := int(b&0x3f) % len(pieces)
			lab := lcl.Label(pieces[i])
			if b&0x80 != 0 {
				lab = stretched[i]
			}
			if b&0x40 != 0 {
				lab = lcl.Label(strings.Clone(string(lab)))
			}
			*secs[sec] = append(*secs[sec], lab)
		}
		if got, want := LabelingChecksum(l), fnvReference(l); got != want {
			t.Fatalf("checksum %016x, hash/fnv %016x", got, want)
		}
	})
}

// TestLabelingChecksumConcurrent: calls on several goroutines share the
// memo pool, and each still returns hash/fnv's sum.
func TestLabelingChecksumConcurrent(t *testing.T) {
	ls := []*lcl.Labeling{paddedShaped(600, 7, 170, 900), paddedShaped(400, 20, 300, 600)}
	want := []uint64{fnvReference(ls[0]), fnvReference(ls[1])}
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func() {
			for i := 0; i < 20; i++ {
				k := (g + i) % len(ls)
				if got := LabelingChecksum(ls[k]); got != want[k] {
					errs <- fmt.Errorf("goroutine %d call %d: checksum %016x, hash/fnv %016x", g, i, got, want[k])
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// paddedShaped returns a labeling shaped like a held padded output:
// node labels drawn from `distinct` labels of about labLen bytes, in
// runs as gadgets lay them out, and ψ/ε edge and half labels.
func paddedShaped(nodes, distinct, labLen, edges int) *lcl.Labeling {
	rng := rand.New(rand.NewSource(5))
	alphabet := make([]lcl.Label, distinct)
	for i := range alphabet {
		sigma := fmt.Sprintf(`{"s":[%d],"ov":"%s"}`, i, strings.Repeat("x", labLen))
		alphabet[i] = lcl.Label(fmt.Sprintf(`[%q,"NoPortErr","GadOk"]`, sigma))[:labLen]
	}
	l := &lcl.Labeling{Node: make([]lcl.Label, nodes), Edge: make([]lcl.Label, edges), Half: make([]lcl.Label, 2*edges)}
	for v := 0; v < nodes; {
		lab := alphabet[rng.Intn(distinct)]
		for run := 1 + rng.Intn(40); run > 0 && v < nodes; run-- {
			l.Node[v] = lab
			v++
		}
	}
	for e := range l.Edge {
		if rng.Intn(50) != 0 {
			l.Edge[e], l.Half[2*e], l.Half[2*e+1] = "psi-ok", "psi-ok", "psi-ok"
		}
	}
	return l
}

// TestLabelingChecksumAllocs: the checksum allocates nothing, on short
// labels and, once its pooled memo has grown, on a padded-shaped
// labeling of long labels.
func TestLabelingChecksumAllocs(t *testing.T) {
	l := randomLabeling(rand.New(rand.NewSource(2)), 4000)
	if allocs := testing.AllocsPerRun(10, func() { LabelingChecksum(l) }); allocs != 0 {
		t.Fatalf("LabelingChecksum allocates %v times, want 0", allocs)
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled memos at random")
	}
	padded := paddedShaped(2208, 7, 170, 3816)
	if allocs := testing.AllocsPerRun(10, func() { LabelingChecksum(padded) }); allocs != 0 {
		t.Fatalf("LabelingChecksum allocates %v times on long labels, want 0", allocs)
	}
}

// BenchmarkLabelingChecksum hashes about 12k short zero labels, and two
// padded-shaped labelings: a held pi2-rand-native base-48 output (7
// distinct ~170-byte node labels over 2,208 nodes) and a held pi3-det
// base-4 output (60 distinct ~830-byte node labels over 1,440 nodes).
func BenchmarkLabelingChecksum(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	short := &lcl.Labeling{}
	for _, sec := range []*[]lcl.Label{&short.Node, &short.Edge, &short.Half} {
		*sec = make([]lcl.Label, 4000)
		for i := range *sec {
			(*sec)[i] = lcl.Label(make([]byte, 8+rng.Intn(40)))
		}
	}
	for _, bc := range []struct {
		name string
		l    *lcl.Labeling
	}{
		{"short", short},
		{"pi2-native", paddedShaped(2208, 7, 170, 3816)},
		{"tower-pi3", paddedShaped(1440, 60, 830, 2254)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				LabelingChecksum(bc.l)
			}
		})
	}
}
