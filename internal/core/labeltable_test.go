package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"locallab/internal/gadget"
	"locallab/internal/graph"
	"locallab/internal/lcl"
	"locallab/internal/sinkless"
)

// TestDecodedLabelsDoNotAlias: Split and DecodeSigmaList return fresh
// values on every call, however much the label layer shares internally.
// Corrupting one decode's parts slice or Σlist slots must not change
// what a later decode of the same label returns — directly, through the
// PiPrime that already verified the labeling, through a verifier holding
// the input's projection, or through a fresh VerifyPadded.
func TestDecodedLabelsDoNotAlias(t *testing.T) {
	base := buildBase(t, 8, 17)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := NewPaddedSolver(sinkless.NewDetSolver(), 3).Solve(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	prime := NewPiPrime(sinkless.Problem{}, 3)
	if err := VerifyPadded(pi.G, prime, pi.In, out); err != nil {
		t.Fatal(err)
	}
	held := prime.Verifier(pi.G, pi.In)
	if err := held(out); err != nil {
		t.Fatal(err)
	}

	l := out.Node[pi.PortsOf[0][0]]
	parts, err := Split(l, outNodeParts)
	if err != nil {
		t.Fatal(err)
	}
	wantParts := append([]lcl.Label(nil), parts...)
	sl, err := DecodeSigmaList(parts[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sl.S) == 0 {
		t.Fatal("port Σlist has an empty S; the corruption below would not bite")
	}
	wantSL, err := DecodeSigmaList(parts[0], 3)
	if err != nil {
		t.Fatal(err)
	}

	for i := range parts {
		parts[i] = "corrupted"
	}
	sl.S[0] = 99
	for i := range sl.IE {
		sl.IE[i], sl.IB[i], sl.OE[i], sl.OB[i] = "junk", "junk", "junk", "junk"
	}
	sl.IV, sl.OV = "junk", "junk"

	again, err := Split(l, outNodeParts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, wantParts) {
		t.Fatalf("re-split after corrupting an earlier result: got %q, want %q", again, wantParts)
	}
	sl2, err := DecodeSigmaList(wantParts[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sl2, wantSL) {
		t.Fatalf("re-decoded Σlist after corrupting an earlier result: got %+v, want %+v", sl2, wantSL)
	}
	if err := VerifyPadded(pi.G, prime, pi.In, out); err != nil {
		t.Fatalf("repeated verification after corrupting decoded values: %v", err)
	}
	if err := held(out); err != nil {
		t.Fatalf("held verification after corrupting decoded values: %v", err)
	}
	if err := VerifyPadded(pi.G, NewPiPrime(sinkless.Problem{}, 3), pi.In, out); err != nil {
		t.Fatalf("fresh verification after corrupting decoded values: %v", err)
	}
}

// TestConcurrentVerifySharesProjections: goroutines verifying the same
// labelings through one PiPrime, half of them through one verifier that
// holds the input projection, share that projection and the PiPrime;
// under the race detector this pins that a held projection is only read.
func TestConcurrentVerifySharesProjections(t *testing.T) {
	base := buildBase(t, 8, 5)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := NewPaddedSolver(sinkless.NewDetSolver(), 3).Solve(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	prime := NewPiPrime(sinkless.Problem{}, 3)
	held := prime.Verifier(pi.G, pi.In)
	errs := make(chan error, 6)
	for i := 0; i < cap(errs); i++ {
		if i%2 == 0 {
			go func() { errs <- held(out) }()
		} else {
			go func() { errs <- VerifyPadded(pi.G, prime, pi.In, out) }()
		}
	}
	for i := 0; i < cap(errs); i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestLabelTableBoundedByLabeling: one decoded padded output needs only
// its distinct labels and their parts, not one entry per node.
func TestLabelTableBoundedByLabeling(t *testing.T) {
	base := buildBase(t, 12, 9)
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{Delta: 3, GadgetHeight: 3})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := NewPaddedSolver(sinkless.NewDetSolver(), 3).Solve(pi.G, pi.In, 0)
	if err != nil {
		t.Fatal(err)
	}
	pout := NewPiPrime(sinkless.Problem{}, 3).projectOutput(pi.G, out, nil)
	distinct := map[lcl.Label]bool{}
	for _, l := range out.Node {
		distinct[l] = true
	}
	// Each distinct node label adds itself, at most three parts, and at
	// most 2+4Δ Σlist slots.
	if limit := len(distinct) * (1 + 3 + 2 + 4*3); len(pout.labels.entries) > limit {
		t.Fatalf("table holds %d labels for %d distinct node labels (limit %d)", len(pout.labels.entries), len(distinct), limit)
	}
	if len(distinct) >= pi.G.NumNodes()/4 {
		t.Fatalf("%d distinct labels over %d nodes: the alphabet is not constant-size", len(distinct), pi.G.NumNodes())
	}
}

// refSplit and refDecodeSigma are the plain encoding/json codec the
// label table must reproduce: decode every call, no interning.
func refSplit(l lcl.Label, n int) ([]string, error) {
	var ss []string
	if err := json.Unmarshal([]byte(l), &ss); err != nil {
		return nil, fmt.Errorf("split label %q: %w", l, err)
	}
	if len(ss) != n {
		return nil, fmt.Errorf("split label: got %d parts, want %d", len(ss), n)
	}
	return ss, nil
}

func refDecodeSigma(l lcl.Label, delta int) (*SigmaList, error) {
	// The decode target is SigmaList itself: json's errors name it.
	var sl SigmaList
	if err := json.Unmarshal([]byte(l), &sl); err != nil {
		return nil, fmt.Errorf("decode sigma list: %w", err)
	}
	if len(sl.IE) != delta || len(sl.IB) != delta || len(sl.OE) != delta || len(sl.OB) != delta {
		return nil, fmt.Errorf("decode sigma list: slot widths %d/%d/%d/%d, want Δ=%d",
			len(sl.IE), len(sl.IB), len(sl.OE), len(sl.OB), delta)
	}
	prev := 0
	for _, p := range sl.S {
		if p < 1 || p > delta {
			return nil, fmt.Errorf("decode sigma list: port %d out of 1..Δ", p)
		}
		if p <= prev {
			return nil, fmt.Errorf("decode sigma list: S not strictly ascending")
		}
		prev = p
	}
	return &sl, nil
}

func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
	if got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: error text\n got %q\nwant %q", what, got.Error(), want.Error())
	}
}

// labelCodecSeeds returns the labels FuzzLabelCodec starts from: every
// label the 12 standard gadget corruptions write, bare and composed;
// the composite and Σlist labels of a padded solve with corrupted
// gadgets; and non-UTF-8 and truncated JSON.
func labelCodecSeeds(tb testing.TB) []string {
	tb.Helper()
	seen := map[string]bool{}
	var seeds []string
	add := func(s string) {
		if !seen[s] {
			seen[s] = true
			seeds = append(seeds, s)
		}
	}
	compose := func(parts ...lcl.Label) string {
		lab, err := Compose(parts...)
		if err != nil {
			tb.Fatal(err)
		}
		return string(lab)
	}

	gd, err := gadget.BuildUniform(3, 2)
	if err != nil {
		tb.Fatal(err)
	}
	corruptions := gadget.StandardCorruptions(gd, rand.New(rand.NewSource(1)))
	if len(corruptions) != 12 {
		tb.Fatalf("%d standard corruptions, want 12", len(corruptions))
	}
	for _, c := range corruptions {
		g, in, err := c.Apply(gd)
		if err != nil {
			tb.Fatalf("%s: %v", c.Name, err)
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if int(v) >= gd.G.NumNodes() || in.Node[v] != gd.In.Node[v] {
				add(string(in.Node[v]))
				add(compose("", in.Node[v]))
			}
		}
		for i, lab := range in.Half {
			if i >= len(gd.In.Half) || lab != gd.In.Half[i] {
				add(string(lab))
				add(compose("", lab))
				add(compose(lab, ""))
			}
		}
	}

	base, err := graph.NewRandomRegular(8, 3, 3, false)
	if err != nil {
		tb.Fatal(err)
	}
	pi, err := BuildPadded(base, lcl.NewLabeling(base), PadOptions{
		Delta: 3, GadgetHeight: 2, CorruptGadgets: []graph.NodeID{1}, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	out, _, err := NewPaddedSolver(sinkless.NewDetSolver(), 3).Solve(pi.G, pi.In, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var sigma string // a valid gadget's Σlist, truncated below
	for _, l := range append(append([]lcl.Label(nil), pi.In.Node...), out.Node...) {
		add(string(l))
		if parts, err := Split(l, outNodeParts); err == nil && parts[0] != "" {
			sigma = string(parts[0])
			add(sigma)
		}
	}
	for _, s := range []string{
		"\xff", "\xc3", "[\"\xff\",\"a\"]", "[\"a\xfe\",\"b\",\"c\"]", "{\"s\":[1],\"iv\":\"\xff\"}",
		`["a","b"`, `["a",`, `[`, `{"s":[1],"iv":`, `{"s":[1,`, "",
		sigma[:len(sigma)/2], compose("x", "y", "z")[:5],
	} {
		add(s)
	}
	return seeds
}

// FuzzLabelCodec differential-tests the label table against the plain
// encoding/json codec: for any input, splitting (at arities 2 and 3) and
// Σlist decoding (at Δ 3 and 5) must give the same parts, Σlist,
// error/no-error and error text as the reference, on the first decode
// and on the cached one; the public Split and DecodeSigmaList must agree
// too; composites the table renders must be byte-equal to json.Marshal;
// and composites and Σlists an assembly table rendered from the input
// must split and decode from what it recorded exactly as their bytes
// decode.
func FuzzLabelCodec(f *testing.F) {
	for _, s := range labelCodecSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		l := lcl.Label(raw)
		tbl := newLabelTable()
		for _, n := range []int{2, 3} {
			want, wantErr := refSplit(l, n)
			for pass := 0; pass < 2; pass++ {
				ids, err := tbl.split(l, n)
				sameErr(t, fmt.Sprintf("table split/%d pass %d", n, pass), err, wantErr)
				if err != nil {
					continue
				}
				got := make([]string, len(ids))
				for i, id := range ids {
					got[i] = string(tbl.label(id))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("table split/%d: got %q, want %q", n, got, want)
				}
				// Re-rendering the parts reproduces json.Marshal's bytes.
				cid, err := tbl.compose(ids...)
				if err != nil {
					t.Fatal(err)
				}
				enc, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if string(tbl.label(cid)) != string(enc) {
					t.Fatalf("compose %q: got %q, json.Marshal %q", want, tbl.label(cid), enc)
				}
			}
			pub, err := Split(l, n)
			sameErr(t, fmt.Sprintf("Split/%d", n), err, wantErr)
			if err == nil {
				for i := range pub {
					if string(pub[i]) != want[i] {
						t.Fatalf("Split/%d part %d: got %q, want %q", n, i, pub[i], want[i])
					}
				}
			}
		}

		for _, delta := range []int{3, 5} {
			tbl := newLabelTable()
			want, wantErr := refDecodeSigma(l, delta)
			for pass := 0; pass < 2; pass++ {
				s, err := tbl.sigma(tbl.intern(l), delta)
				sameErr(t, fmt.Sprintf("table sigma/Δ%d pass %d", delta, pass), err, wantErr)
				if err != nil {
					continue
				}
				if got := sigmaStrings(tbl, s); !reflect.DeepEqual(got, want) {
					t.Fatalf("table sigma/Δ%d: got %+v, want %+v", delta, got, want)
				}
			}
			pub, err := DecodeSigmaList(l, delta)
			sameErr(t, fmt.Sprintf("DecodeSigmaList/Δ%d", delta), err, wantErr)
			if err == nil && !reflect.DeepEqual(pub, want) {
				t.Fatalf("DecodeSigmaList/Δ%d: got %+v, want %+v", delta, pub, want)
			}
		}

		// Arbitrary tuples render exactly as json.Marshal does, and a
		// repeated tuple is one id.
		for _, parts := range [][]lcl.Label{{l, l}, {l, "x", l}, {"", l}} {
			ss := make([]string, len(parts))
			ids := make([]labelID, len(parts))
			for i, p := range parts {
				ss[i], ids[i] = string(p), tbl.intern(p)
			}
			enc, err := json.Marshal(ss)
			if err != nil {
				t.Fatal(err)
			}
			a, err := tbl.compose(ids...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tbl.compose(ids...)
			if err != nil {
				t.Fatal(err)
			}
			if a != b || string(tbl.label(a)) != string(enc) {
				t.Fatalf("compose %q: ids %d/%d, label %q, json.Marshal %q", ss, a, b, tbl.label(a), enc)
			}
		}

		// The seeding path: a composite an assembly table rendered splits
		// from the parts it recorded, and a Σlist it encoded decodes from
		// the struct it recorded, exactly as a fresh table decodes their
		// bytes: same parts, Σlist, error and error text. The parts and
		// Σlist strings come from l, so they may be invalid UTF-8, and
		// the Σlists include ones that fail the width and port checks.
		half := string(l[len(l)/2:]) // may cut a UTF-8 sequence
		for _, parts := range [][]lcl.Label{{l, "NoPortErr", "GadOk"}, {"", lcl.Label(half)}, {l, l, l}} {
			asm := newLabelTable()
			ids := make([]labelID, len(parts))
			for i, p := range parts {
				ids[i] = asm.intern(p)
			}
			id, err := asm.compose(ids...)
			if err != nil {
				t.Fatal(err)
			}
			checkSplit(t, asm, asm.label(id))
		}
		for _, width := range []int{3, 2} {
			sl := NewSigmaList(width)
			sl.IV, sl.OV = raw, half
			for i := 0; i < width; i++ {
				sl.IE[i], sl.IB[i], sl.OE[i], sl.OB[i] = raw[:i*len(raw)/width], "x", raw, ""
			}
			for i := 0; i < len(raw) && i < 4; i++ {
				sl.S = append(sl.S, int(raw[i]%7)) // 0..6: in and out of 1..Δ, any order
			}
			for _, delta := range []int{3, 5} {
				asm := newLabelTable()
				id, err := asm.encodeSigma(sl)
				if err != nil {
					t.Fatal(err)
				}
				lab := asm.label(id)
				want, wantErr := refDecodeSigma(lab, delta)
				s, err := asm.sigma(id, delta)
				sameErr(t, fmt.Sprintf("seeded sigma/width %d/Δ%d", width, delta), err, wantErr)
				if err == nil {
					if got := sigmaStrings(asm, s); !reflect.DeepEqual(got, want) {
						t.Fatalf("seeded sigma/width %d/Δ%d: got %+v, want %+v", width, delta, got, want)
					}
				}
				// The Σlist's label also composes and splits like any other.
				cid, err := asm.compose(id, asm.intern(NoPortErr), asm.intern("GadOk"))
				if err != nil {
					t.Fatal(err)
				}
				checkSplit(t, asm, asm.label(cid))
			}
		}
	})
}

// checkSplit splits lab through tbl at arities 2 and 3 and compares the
// parts and error text with the plain codec.
func checkSplit(t *testing.T, tbl *labelTable, lab lcl.Label) {
	t.Helper()
	for _, n := range []int{2, 3} {
		want, wantErr := refSplit(lab, n)
		ids, err := tbl.split(lab, n)
		sameErr(t, fmt.Sprintf("seeded split/%d of %q", n, lab), err, wantErr)
		if err != nil {
			continue
		}
		got := make([]string, len(ids))
		for i, id := range ids {
			got[i] = string(tbl.label(id))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seeded split/%d: got %q, want %q", n, got, want)
		}
	}
}

// sigmaStrings renders a table's decoded Σlist back into strings.
func sigmaStrings(tbl *labelTable, s *sigmaIDs) *SigmaList {
	str := func(ids []labelID) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = string(tbl.label(id))
		}
		return out
	}
	return &SigmaList{
		S: s.S, IV: string(tbl.label(s.IV)), OV: string(tbl.label(s.OV)),
		IE: str(s.IE), IB: str(s.IB), OE: str(s.OE), OB: str(s.OB),
	}
}
