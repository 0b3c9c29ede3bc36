package core

import (
	"unicode/utf8"

	"locallab/internal/lcl"
)

// labelID names one distinct label of a labelTable.
type labelID int32

// noLabel marks an absent id: an unused compose-key slot, or the Σlist
// of a node whose output label did not decode.
const noLabel labelID = -1

// labelTable is the label layer of one decoded labeling. Π′'s alphabets
// are constant-size (Sections 2 and 3.3): a padded labeling holds
// thousands of composite labels but only a few dozen distinct ones. The
// table interns each distinct lcl.Label as a small id and decodes it at
// most once: its composite parts as ids, its Σlist as a sigmaIDs, or the
// decode error. Composing a tuple of ids renders it once, so Compose is a
// lookup per distinct tuple.
//
// First decodes and renders go through Split, DecodeSigmaList and
// Compose themselves, so accepted inputs, error texts and output bytes
// are exactly those of the plain codec. Strings survive only at the
// lcl.Labeling boundary: projections hand out the table's interned
// strings, and comparisons inside one table compare ids.
//
// A table composes labels or decodes them, and it can do both: the
// table a solve assembles its output through (expandVirtual) knows each
// composite's parts and each Σlist's contents already, and it records
// them, so the held verify of that output (PiPrime.SeededVerifier)
// projects the output through the same table and decodes only what
// assembly did not compose. Lookups stay keyed by label bytes, so a
// label changed after assembly misses and is decoded from its bytes.
// Only exact round trips are recorded: json.Marshal turns invalid UTF-8
// into U+FFFD, so a composite with a non-UTF-8 part, or a Σlist with a
// non-UTF-8 string, is left to decode from its bytes.
//
// A table lives for one solve (with that solve's verify), one
// padded-instance build, one input decode, or the output projection of
// one VerifyPadded level. It is never package-level and never shared
// between labelings, so its memory is bounded by the labeling it decodes
// or renders. The decoded values it hands out are shared: callers read
// them and never modify them. The decode that builds a table fills it
// completely; after that it is only read.
type labelTable struct {
	ids      map[lcl.Label]labelID
	entries  []labelEntry
	composed map[[3]labelID]labelID
}

// labelEntry is one distinct label and its decoded forms, each filled on
// first use.
type labelEntry struct {
	lab lcl.Label

	split    bool
	parts    []labelID // composite parts, when split and partsErr is nil
	partsErr error

	sigmaDone bool
	sigma     *sigmaIDs
	sigmaErr  error
	// encoded is the Σlist assembly encoded into this label (encodeSigma),
	// until the first sigma call decodes the label from it.
	encoded *SigmaList
}

// sigmaIDs is a decoded Σlist (see SigmaList) whose labels are ids of
// the owning table.
type sigmaIDs struct {
	S              []int
	IV, OV         labelID
	IE, IB, OE, OB []labelID
}

// contains reports whether physical port i lies in S.
func (s *sigmaIDs) contains(i int) bool {
	for _, p := range s.S {
		if p == i {
			return true
		}
	}
	return false
}

func newLabelTable() *labelTable {
	return &labelTable{ids: make(map[lcl.Label]labelID)}
}

// intern returns l's id, adding l on first sight.
func (t *labelTable) intern(l lcl.Label) labelID {
	if id, ok := t.ids[l]; ok {
		return id
	}
	id := labelID(len(t.entries))
	t.ids[l] = id
	t.entries = append(t.entries, labelEntry{lab: l})
	return id
}

// label returns the interned string of id.
func (t *labelTable) label(id labelID) lcl.Label { return t.entries[id].lab }

// split interns l and decodes it as a composite of exactly n parts, like
// Split.
func (t *labelTable) split(l lcl.Label, n int) ([]labelID, error) {
	id := t.intern(l)
	if !t.entries[id].split {
		ss, err := splitParts(t.entries[id].lab)
		var parts []labelID
		if err == nil {
			parts = make([]labelID, len(ss))
			for i, s := range ss {
				parts[i] = t.intern(lcl.Label(s))
			}
		}
		e := &t.entries[id] // interning may have moved the entries
		e.split, e.parts, e.partsErr = true, parts, err
	}
	e := &t.entries[id]
	if e.partsErr != nil {
		return nil, e.partsErr
	}
	if len(e.parts) != n {
		return nil, partCountErr(len(e.parts), n)
	}
	return e.parts, nil
}

// sigma decodes id as a Σlist, like DecodeSigmaList. A table decodes
// Σlists for a single Δ. A label encodeSigma rendered decodes from the
// Σlist it encoded, when that Σlist passes DecodeSigmaList's checks and
// survives its own encoding unchanged.
func (t *labelTable) sigma(id labelID, delta int) (*sigmaIDs, error) {
	if !t.entries[id].sigmaDone {
		sl, err := t.entries[id].encoded, error(nil)
		if sl == nil || sl.check(delta) != nil || !sl.validUTF8() {
			sl, err = DecodeSigmaList(t.entries[id].lab, delta)
		}
		var s *sigmaIDs
		if err == nil {
			s = t.internSigma(sl)
		}
		e := &t.entries[id]
		e.sigmaDone, e.sigma, e.sigmaErr, e.encoded = true, s, err, nil
	}
	e := &t.entries[id]
	return e.sigma, e.sigmaErr
}

// encodeSigma encodes sl and interns the label, recording sl for a
// later sigma of the label. sl must not change afterwards.
func (t *labelTable) encodeSigma(sl *SigmaList) (labelID, error) {
	enc, err := sl.Encode()
	if err != nil {
		return noLabel, err
	}
	id := t.intern(enc)
	if e := &t.entries[id]; !e.sigmaDone && e.encoded == nil {
		e.encoded = sl
	}
	return id, nil
}

func (t *labelTable) internSigma(sl *SigmaList) *sigmaIDs {
	d := len(sl.IE)
	slots := make([]labelID, 4*d)
	s := &sigmaIDs{
		S:  sl.S,
		IV: t.intern(lcl.Label(sl.IV)),
		OV: t.intern(lcl.Label(sl.OV)),
		IE: slots[0*d : 1*d : 1*d],
		IB: slots[1*d : 2*d : 2*d],
		OE: slots[2*d : 3*d : 3*d],
		OB: slots[3*d : 4*d : 4*d],
	}
	for i := 0; i < d; i++ {
		s.IE[i] = t.intern(lcl.Label(sl.IE[i]))
		s.IB[i] = t.intern(lcl.Label(sl.IB[i]))
		s.OE[i] = t.intern(lcl.Label(sl.OE[i]))
		s.OB[i] = t.intern(lcl.Label(sl.OB[i]))
	}
	return s
}

// compose returns the id of the composite of at most three parts, rendering
// each distinct tuple once with Compose. A new composite of UTF-8 parts
// records them as its split.
func (t *labelTable) compose(parts ...labelID) (labelID, error) {
	key := [3]labelID{noLabel, noLabel, noLabel}
	copy(key[:], parts)
	if id, ok := t.composed[key]; ok {
		return id, nil
	}
	var labs [3]lcl.Label
	for i, p := range parts {
		labs[i] = t.label(p)
	}
	lab, err := Compose(labs[:len(parts)]...)
	if err != nil {
		return noLabel, err
	}
	if t.composed == nil {
		t.composed = make(map[[3]labelID]labelID)
	}
	id := t.intern(lab)
	t.composed[key] = id
	if e := &t.entries[id]; !e.split && allUTF8(labs[:len(parts)]) {
		e.split, e.parts = true, append([]labelID(nil), parts...)
	}
	return id, nil
}

// allUTF8 reports whether every label is valid UTF-8, so that json
// carries it through Compose and Split unchanged.
func allUTF8(labs []lcl.Label) bool {
	for _, l := range labs {
		if !utf8.ValidString(string(l)) {
			return false
		}
	}
	return true
}

// composeLabels interns at most three parts and composes them.
func (t *labelTable) composeLabels(parts ...lcl.Label) (lcl.Label, error) {
	var ids [3]labelID
	for i, p := range parts {
		ids[i] = t.intern(p)
	}
	id, err := t.compose(ids[:len(parts)]...)
	if err != nil {
		return "", err
	}
	return t.label(id), nil
}
