package bytecode

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/vm"
)

// The scheduler's randomness and its runnable set. The RNG consumption
// order — one Intn(runnable) and one Intn(2*PreemptMean) per scheduling
// decision, drawn the way rand.(*Rand).Intn draws them — is part of the
// determinism contract with the interpreter, which draws through a
// rand.Rand and decides at every quantum expiry. This engine makes the
// same draws from its own copy of the generator and picks from a list it
// keeps up to date, and it draws ahead: the decisions after a pick that
// would pick the same thread again are merged into one grant, so an
// expiry that changes nothing costs nothing, and a grant cut short by a
// change of the runnable set rewinds the generator to the decision in
// effect.

// alfg is math/rand's additive lagged-Fibonacci generator,
// x[n] = x[n-607] + x[n-273] mod 2^64, held in the machine. x[n] lives
// in ring[n mod 1024], so a step needs no wrap-around test; at is where
// the latest x is.
type alfg struct {
	ring [alfgRing]uint64
	at   uint32
}

const (
	alfgLong, alfgShort = 607, 273
	alfgRing            = 1024 // a power of two with room for the long lag
)

// specMax caps the decisions one grant merges. Speculation runs at most
// 2·(specMax−1) values ahead of the committed decision, and a rewind is
// one store to at only while the ring still holds every value the
// rewound generator will read again: no more than alfgRing−alfgLong
// values ahead. The constant below does not compile otherwise.
const specMax = 64

const _ = uint(alfgRing - alfgLong - 2*(specMax-1))

// grant is what the last schedule() merged: decision j lets the thread
// run until it has executed end[j] instructions of the grant, and leaves
// the generator at at[j]. A merge that ended on a decision picking
// another thread has drawn that decision already — nextPick, and the
// nextEnd instructions it grants — and left the generator after it: it
// is the next committed decision unless a cut comes first.
type grant struct {
	n                 int
	end               [specMax]int
	at                [specMax]uint32
	drawn             bool
	nextPick, nextEnd int
}

// seeders lends out the math/rand sources seed reads a state from; a
// machine needs one only while it resets.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0) }}

// seed puts g in the state of rand.NewSource(s). math/rand stays the
// only authority on seeding, and its table of 607 additive constants is
// not copied: a freshly seeded source's first 607 outputs x[0..606] are
// a whole generator state, and running the recurrence backwards over
// them, x[n-607] = x[n] - x[n-273] for n = 606 down to 0, yields the 607
// values before them — the state the source was seeded with.
func (g *alfg) seed(s int64) {
	src := seeders.Get().(rand.Source64)
	src.Seed(s)
	for n := 0; n < alfgLong; n++ {
		g.ring[n] = src.Uint64()
	}
	seeders.Put(src)
	for n := alfgLong - 1; n >= 0; n-- {
		g.ring[(n-alfgLong)&(alfgRing-1)] = g.ring[n] - g.ring[(n-alfgShort)&(alfgRing-1)]
	}
	g.at = alfgRing - 1 // x[-1]: the next step makes x[0]
}

// int31 is rand.(*Rand).Int31 on a rand.NewSource: one step of the
// generator, bits 32..62 of the new x.
func (g *alfg) int31() uint32 {
	g.at = (g.at + 1) % alfgRing
	x := g.ring[(g.at-alfgLong)%alfgRing] + g.ring[(g.at-alfgShort)%alfgRing]
	g.ring[g.at] = x
	return uint32(x << 1 >> 33) // x is unsigned
}

// intnConsts is what Intn(n) needs besides its draws: the rejection
// bound, and the reciprocal magic = ⌈2^64/n⌉ mod 2^64 for the modulo —
// v mod n is the high word of (magic·v mod 2^64)·n, exactly, for every
// 32-bit v and n (Lemire, Kaser and Kurz, "Faster remainder by direct
// computation", 2019). It turns both hardware divisions of an Intn into
// multiplies.
type intnConsts struct {
	n, magic uint64
	max      uint32
}

func newIntn(n int) intnConsts {
	return intnConsts{
		n:     uint64(n),
		magic: math.MaxUint64/uint64(n) + 1,
		max:   (1 << 31) - 1 - (1<<31)%uint32(n),
	}
}

// mod is v mod c.n for a draw v that Intn accepts.
func (c *intnConsts) mod(v uint32) int {
	r, _ := bits.Mul64(c.magic*uint64(v), c.n)
	return int(r)
}

// intn replicates rand.(*Rand).Intn(c.n) exactly — same draws from the
// generator in the same order, same result. (Rand.Intn masks instead
// when n is a power of two; for such an n the bound below rejects
// nothing and the remainder is that mask.) The loop has one draw site so
// that the function stays small enough to inline.
func (m *Machine) intn(c *intnConsts) int {
	var v uint32
	for {
		if v = m.rng.int31(); v <= c.max {
			break
		}
	}
	return c.mod(v)
}

// RunnableThreads reports how many threads are currently runnable. The
// record/replay baseline reads it from inside OnStep to model single-core
// serialization.
func (m *Machine) RunnableThreads() int { return len(m.runnable) }

// park takes t, which has just blocked or finished, off the runnable
// list.
func (m *Machine) park(t *thread) {
	r := m.runnable
	i := 0
	for r[i] != t {
		i++
	}
	m.runnable = append(r[:i], r[i+1:]...)
}

// wake makes a blocked thread runnable again. The list stays in ID
// order: the scheduler's pick is the k-th runnable thread in thread
// order, as it is for the interpreter.
func (m *Machine) wake(th *thread) {
	th.state = vm.ThreadRunnable
	th.blockMutex = 0
	th.blockJoin = -1
	r := append(m.runnable, nil)
	i := len(r) - 1
	for ; i > 0 && r[i-1].ID > th.ID; i-- {
		r[i] = r[i-1]
	}
	r[i] = th
	m.runnable = r
}

func (m *Machine) wakeJoiners(tid int) {
	for _, th := range m.threads {
		if th.state == vm.ThreadBlocked && th.blockMutex == 0 && th.blockJoin == tid {
			m.wake(th)
		}
	}
}

// schedule picks the next thread and grants it a run of instructions, or
// returns nil when nothing is runnable. The committed decision is the
// interpreter's: Intn(runnable) for the pick, 1+Intn(2*PreemptMean) for a
// quantum that runs one instruction more than its value. The decisions
// after it are drawn too, and merged while they pick the same thread
// from the same list. A draw Intn would reject ends the merge and is
// handed back, so each merged decision takes exactly two values and
// rewinding one is a store (cut). A decision that ends it by picking
// another thread is kept as the next committed one. m.quantum is the
// grant's countdown.
func (m *Machine) schedule() *thread {
	n := len(m.runnable)
	if n == 0 {
		return nil
	}
	pick := &m.pick[n-1]
	g := &m.grant
	k := g.nextPick
	if g.drawn {
		g.end[0] = g.nextEnd
	} else {
		k = m.intn(pick)
		g.end[0] = 2 + m.intn(&m.preempt)
	}
	g.at[0], g.drawn = m.rng.at, false
	j := 1
	for ; j < specMax; j++ {
		v, w := m.rng.int31(), m.rng.int31()
		if v > pick.max || w > m.preempt.max {
			m.rng.at = g.at[j-1]
			break
		}
		if p := pick.mod(v); p != k {
			g.drawn, g.nextPick, g.nextEnd = true, p, 2+m.preempt.mod(w)
			break
		}
		g.end[j], g.at[j] = g.end[j-1]+2+m.preempt.mod(w), m.rng.at
	}
	g.n = j
	m.quantum = g.end[j-1] - 1
	next := m.runnable[k]
	if next.ID != m.cur {
		if m.cfg.Hooks.OnSchedule != nil {
			m.cfg.Hooks.OnSchedule(m.cur, next.ID, m.clock)
		}
		m.cur = next.ID
	}
	return next
}

// cut ends the grant at the decision in effect, for an instruction that
// changed the runnable set or ends the quantum early, executed with q
// left on the grant's countdown: decision j, the first whose end covers
// the e instructions run so far, is kept, the generator rewinds to
// where j left it, and the countdown left in j is returned.
func (m *Machine) cut(q int) int {
	g := &m.grant
	e := m.quantum - q + 1
	j := 0
	for g.end[j] < e {
		j++
	}
	g.n, g.drawn = j+1, false
	m.rng.at = g.at[j]
	m.quantum = g.end[j] - 1
	return g.end[j] - e
}
