package bytecode

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/vm"
)

// The scheduler's randomness, its runnable set and the threads' credit.
// The RNG consumption order — one Intn(runnable) and one
// Intn(2*PreemptMean) per scheduling decision, drawn the way
// rand.(*Rand).Intn draws them — is part of the determinism contract with
// the interpreter, which draws through a rand.Rand and decides at every
// quantum expiry. This engine makes the same draws from its own copy of
// the generator, one decision at a time and in the interpreter's order,
// and picks from a list it keeps up to date. What it does not do is
// switch threads at every decision: a thread whose quantum ends keeps
// executing private steps — steps no hook and no other thread can
// observe — and banks them as credit (see runThread), and a decision
// that picks a thread holding enough credit is charged against it
// instead of running anything.

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

// step is rand.(*Rand).Int31 on a rand.NewSource: one step of the
// generator from position at, for a caller that keeps at in a register.
// It returns the new position and bits 32..62 of the new x.
func (g *alfg) step(at uint32) (uint32, uint32) {
	at = (at + 1) % alfgRing
	x := g.ring[(at-alfgLong)%alfgRing] + g.ring[(at-alfgShort)%alfgRing]
	g.ring[at] = x
	return at, uint32(x << 1 >> 33) // x is unsigned
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

// schedule makes the interpreter's scheduling decisions from m.clock on
// and returns the thread that runs the next step, or nil when nothing is
// runnable. A quantum left in m.quantum is the interpreter's: the thread
// in effect, still runnable, takes the next step. Otherwise it draws:
// Intn(runnable) for the pick and 1+Intn(2*PreemptMean) for a quantum, so
// the decision covers g = 2+Intn steps of the picked thread. Steps the
// thread has already run ahead are charged — its credit, and the clock,
// move by up to g — and a decision charged in full is followed by the
// next one. The thread returned has no credit left and m.quantum steps of
// its decision after the next one. Charging stops at the step limit, with
// the clock there; callers check it first.
func (m *Machine) schedule() *thread {
	if t := m.threads[m.cur]; t.state == vm.ThreadRunnable && m.quantum > 0 {
		m.quantum--
		return t
	}
	n := len(m.runnable)
	if n == 0 {
		return nil
	}
	// The runnable set cannot change while decisions are charged, so the
	// loop carries only the generator's position, the clock, the thread
	// in effect and the sum of credit, and stores them when it is done.
	pick, onSchedule, limit := &m.pick[n-1], m.cfg.Hooks.OnSchedule, m.cfg.MaxSteps
	at, clock, cur, ahead := m.rng.at, m.clock, m.cur, m.ahead
	var next *thread
	for clock < limit {
		// Intn(n) and Intn(2*PreemptMean), drawn the way rand.(*Rand).Intn
		// draws: a value above max is rejected and the next one taken.
		// (Intn masks instead when n is a power of two; for such an n max
		// rejects nothing and the remainder is that mask.)
		var v, w uint32
		at, v = m.rng.step(at)
		for v > pick.max {
			at, v = m.rng.step(at)
		}
		at, w = m.rng.step(at)
		for w > m.preempt.max {
			at, w = m.rng.step(at)
		}
		next = m.runnable[pick.mod(v)]
		g := int64(2 + m.preempt.mod(w))
		if onSchedule != nil && next.ID != cur {
			m.clock, m.ahead = clock, ahead
			onSchedule(cur, next.ID, clock)
		}
		cur = next.ID
		done := min(next.credit, g, limit-clock)
		next.credit -= done
		ahead -= done
		clock += done
		if done < g {
			m.quantum = int(g - done - 1)
			break
		}
		next = nil
	}
	m.rng.at, m.clock, m.cur, m.ahead = at, clock, cur, ahead
	return next
}

// aheadMax caps one thread's credit. A run that ends — 62 % of the
// fleet's fail — throws away the credit its threads hold, so the cap
// bounds that waste; beyond it a thread's run-ahead gains little, as the
// decisions it covers cost the same either way.
const aheadMax = 512

// aheadRoom is the credit a thread whose decision ends at clock end may
// earn: at most aheadCap, and at most what keeps the clock plus all
// credit below the step limit.
func (m *Machine) aheadRoom(end int64) int {
	return int(max(0, min(int64(m.aheadCap), m.cfg.MaxSteps-end-m.ahead-1)))
}

// stale reports whether the n bytes at addr reach into the stack of a
// thread holding credit, whose bytes are ahead of the clock.
func (m *Machine) stale(addr, n int64) bool {
	if m.ahead == 0 || addr+n <= vm.StackBase || addr >= vm.HeapBase {
		return false
	}
	hi := (min(addr+n, vm.HeapBase) - 1 - vm.StackBase) / vm.StackStride
	for tid := (max(addr, vm.StackBase) - vm.StackBase) / vm.StackStride; tid <= hi && tid < int64(len(m.threads)); tid++ {
		if m.threads[tid].credit > 0 {
			return true
		}
	}
	return false
}

// rerun makes the machine exact at clock c, for the two cases where
// credit would show: a public access to the stack of a thread holding
// credit, at step c-1, and the step limit c reached while the thread in
// effect holds credit. It runs the same run again on a pooled machine,
// silently (no hooks) and never ahead, to clock c, takes over its state —
// with the Traced bits this run's consumer set, which credit never
// crosses a change of — and hands the old state back to the pool. A
// re-run that stops at c short of the step limit has executed step c-1
// and reports a hang that is not one; it is dropped, and a fault of step
// c-1 itself is kept.
func (m *Machine) rerun(c int64) {
	r, ok := m.prog.pool.Get().(*Machine)
	if !ok {
		r = NewMachine(m.prog)
	}
	cfg := m.cfg
	silent := cfg
	silent.Hooks = vm.Hooks{}
	r.Reset(silent)
	r.cfg.MaxSteps, r.aheadCap = c, 0
	r.run()
	if c < cfg.MaxSteps && r.fault != nil && r.fault.Kind == vm.FaultHang {
		r.fault = nil
	}
	for i, th := range m.threads {
		r.threads[i].Traced = th.Traced
	}
	*m, *r = *r, *m
	m.cfg, m.aheadCap = cfg, aheadMax
	m.prog.pool.Put(r)
}
