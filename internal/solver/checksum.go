package solver

import (
	"sync"

	"locallab/internal/lcl"
)

// LabelingChecksum fingerprints an output labeling with FNV-1a 64,
// section-separated so (Node, Edge, Half) permutations cannot collide
// trivially. It is the per-cell "labels checksum" of scenario reports:
// two runs agree on a cell iff they produced the identical labeling.
// The hashed stream is every label followed by a 0 byte, and a 0xff byte
// after every section but the last: the stream hash/fnv's New64a would
// hash, without a []byte copy per label.
//
// FNV-1a's low byte evolves on its own: h ^ b changes only the low 8
// bits of h, and the low 8 bits of a product mod 2⁶⁴ depend only on the
// low 8 bits of its factors. So hashing a label s of k bytes and its 0
// separator maps state h to
//
//	h·P^(k+1) + C_s(h & 0xff)  (mod 2⁶⁴),  C_s(lo) = f_s(lo) − lo·P^(k+1),
//
// where P is the FNV prime and f_s the byte loop over s. Padded outputs
// hold thousands of long composite labels but only a few distinct ones
// (Π′'s alphabets have constant size), so a label of at least
// fnvMemoMinLen bytes is hashed byte by byte once per distinct (label,
// low byte) pair of the call; every other occurrence costs one multiply
// and one add. Shorter labels keep the byte loop. The sums are those of
// the byte loop over the whole stream.
func LabelingChecksum(l *lcl.Labeling) uint64 {
	var m *fnvMemo // taken from fnvMemos at the first long label
	h := fnvLabels(fnvOffset64, l.Node, &m)
	h = (h ^ 0xff) * fnvPrime64
	h = fnvLabels(h, l.Edge, &m)
	h = (h ^ 0xff) * fnvPrime64
	h = fnvLabels(h, l.Half, &m)
	if m != nil {
		m.release()
	}
	return h
}

// FNV-1a 64 parameters (hash/fnv's offset64 and prime64).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMemoMinLen is the shortest label LabelingChecksum memoizes: below
// it (ε, ψ, colours) the byte loop costs less than the lookup.
const fnvMemoMinLen = 32

// fnvLabels continues FNV-1a hash h over each label's bytes and a 0
// separator after each, memoizing long labels in *mp (taken from the
// pool on first use).
func fnvLabels(h uint64, labs []lcl.Label, mp **fnvMemo) uint64 {
	var prev lcl.Label
	var id, pow uint64
	for _, lab := range labs {
		if len(lab) < fnvMemoMinLen {
			h = fnvLabel(h, lab)
			continue
		}
		if *mp == nil {
			*mp = takeFnvMemo()
		}
		m := *mp
		// Runs of one label are common; comparing with the previous
		// label is cheap when both share their bytes.
		if lab != prev {
			id, pow = m.label(lab)
			prev = lab
		}
		key := id<<8 | h&0xff
		s := m.slot(key)
		if s.gen != m.gen {
			s = m.insert(key, fnvLabel(h, lab)-h*pow)
		}
		h = h*pow + s.c
	}
	return h
}

// fnvLabel continues FNV-1a hash h over lab's bytes and a 0 separator.
func fnvLabel(h uint64, lab lcl.Label) uint64 {
	for i := 0; i < len(lab); i++ {
		h = (h ^ uint64(lab[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the 0 separator: h ^ 0 == h
}

// fnvMemo is one LabelingChecksum call's memo of C_s(lo): ids numbers
// the call's distinct long labels, pows holds P^(k+1) by id, and slots
// is an open-addressed table keyed by id<<8 | lo. A slot is current only
// when it carries the call's gen, so a call starts from an empty memo
// without clearing the table. Memos are pooled: a call allocates only
// while a memo grows past every earlier call's size.
type fnvMemo struct {
	ids   map[lcl.Label]uint64
	pows  []uint64
	slots []fnvSlot // 1<<(64-shift) of them
	shift uint
	live  int // current slots
	gen   uint32
}

type fnvSlot struct {
	key, c uint64
	gen    uint32
}

var fnvMemos = sync.Pool{New: func() any {
	return &fnvMemo{ids: make(map[lcl.Label]uint64), slots: make([]fnvSlot, 1<<10), shift: 64 - 10}
}}

// takeFnvMemo takes a memo from the pool for one call: a new gen makes
// every slot stale.
func takeFnvMemo() *fnvMemo {
	m := fnvMemos.Get().(*fnvMemo)
	if m.gen++; m.gen == 0 { // wrapped: no old slot may look current
		clear(m.slots)
		m.gen = 1
	}
	return m
}

// release empties the memo of this call's labels and returns it to the
// pool; its slots go stale with the next call's gen.
func (m *fnvMemo) release() {
	clear(m.ids)
	m.pows = m.pows[:0]
	m.live = 0
	fnvMemos.Put(m)
}

// label returns lab's id and P^(len(lab)+1), adding lab on first sight.
func (m *fnvMemo) label(lab lcl.Label) (id, pow uint64) {
	if id, ok := m.ids[lab]; ok {
		return id, m.pows[id]
	}
	pow, base := uint64(1), uint64(fnvPrime64)
	for e := len(lab) + 1; e > 0; e >>= 1 {
		if e&1 != 0 {
			pow *= base
		}
		base *= base
	}
	id = uint64(len(m.pows))
	m.ids[lab] = id
	m.pows = append(m.pows, pow)
	return id, pow
}

// slot returns key's current slot, or the stale slot where key would be
// inserted.
func (m *fnvMemo) slot(key uint64) *fnvSlot {
	mask := len(m.slots) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> m.shift); ; i = (i + 1) & mask {
		if s := &m.slots[i]; s.gen != m.gen || s.key == key {
			return s
		}
	}
}

// insert stores c under key, which has no current slot, growing the
// table to keep it at most three quarters full.
func (m *fnvMemo) insert(key, c uint64) *fnvSlot {
	if 4*(m.live+1) > 3*len(m.slots) {
		old := m.slots
		m.slots = make([]fnvSlot, 2*len(old))
		m.shift--
		for i := range old {
			if old[i].gen == m.gen {
				*m.slot(old[i].key) = old[i]
			}
		}
	}
	s := m.slot(key)
	*s = fnvSlot{key: key, gen: m.gen, c: c}
	m.live++
	return s
}
