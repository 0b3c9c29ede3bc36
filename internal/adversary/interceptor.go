package adversary

// Codec maps a protocol's concrete message type to and from a 64-bit
// word — the representation bit-corruption and Byzantine faults operate
// on. Decode must accept every word (masking excess bits), so an
// arbitrary Byzantine word always decodes to some well-formed message;
// Encode∘Decode need not be the identity on out-of-range bits. Decode
// also gets the receiver slot, where a codec of views into storage can
// keep the word: Deliver never runs twice for one slot in a phase. Both
// functions must be allocation-free and deterministic.
type Codec[M any] struct {
	Encode func(M) uint64
	Decode func(slot int32, w uint64) M
}

// Interceptor executes one Plan on a typed engine session: it
// implements engine.Interceptor[M] and applies the plan's fault to
// every in-flight message. Per-slot duplicate state is the only
// mutable field; slots are partitioned across shards, so concurrent
// Deliver calls never touch the same entry, and decisions remain pure
// in (round, slot) — byte-identical under every geometry.
//
// One Interceptor serves one run at a time; allocate (or Reset) a fresh
// one per execution. NewInterceptor is a free function because Go
// methods cannot introduce type parameters.
type Interceptor[M any] struct {
	plan  *Plan
	codec Codec[M]
	round int

	// dupHeld/dupVal hold the per-slot replay of duplicate faults: a
	// message captured this round overrides the fresh one next round.
	dupHeld []bool
	dupVal  []M
}

// NewInterceptor binds a compiled plan to a message codec.
func NewInterceptor[M any](p *Plan, codec Codec[M]) *Interceptor[M] {
	return &Interceptor[M]{
		plan:    p,
		codec:   codec,
		dupHeld: make([]bool, p.Slots()),
		dupVal:  make([]M, p.Slots()),
	}
}

// Reset clears per-run state so the interceptor can serve a fresh
// execution of the same plan.
func (it *Interceptor[M]) Reset() {
	it.round = 0
	clear(it.dupHeld)
	clear(it.dupVal)
}

// BeginRound implements engine.Interceptor.
func (it *Interceptor[M]) BeginRound(round int) { it.round = round }

// Deliver implements engine.Interceptor: it applies the plan's fault to
// the message in flight on receiver slot p.
func (it *Interceptor[M]) Deliver(p int32, m M) M {
	pl := it.plan
	switch pl.Fault.Kind {
	case KindCrash:
		if pl.active(it.round) && pl.slotSender[p] == int32(pl.Node) {
			var zero M
			return zero
		}
	case KindByzantine:
		if pl.active(it.round) && pl.slotSender[p] == int32(pl.Node) {
			return it.codec.Decode(p, pl.payload(it.round, p))
		}
	case KindDrop:
		if pl.fires(it.round, p) {
			var zero M
			return zero
		}
	case KindDuplicate:
		// A held replay overrides this round's fresh message; otherwise
		// the fresh message may be captured for replay next round (it
		// still delivers normally this round).
		if it.dupHeld[p] {
			it.dupHeld[p] = false
			return it.dupVal[p]
		}
		if pl.fires(it.round, p) {
			it.dupHeld[p] = true
			it.dupVal[p] = m
		}
	case KindCorrupt:
		if pl.fires(it.round, p) {
			w := it.codec.Encode(m) ^ (1 << (pl.payload(it.round, p) & 63))
			return it.codec.Decode(p, w)
		}
	}
	return m
}
