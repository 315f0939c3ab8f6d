package bytecode

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/vm"
)

// The scheduler's randomness, its runnable set and the threads' credit.
// The RNG consumption order — one Intn(runnable) and one
// Intn(2*PreemptMean) per scheduling decision, drawn the way
// rand.(*Rand).Intn draws them — is part of the determinism contract with
// the interpreter, which draws through a rand.Rand and decides at every
// quantum expiry. This engine makes the same draws, in the interpreter's
// order, from its own copy of the generator, and picks from a list of
// the runnable threads it keeps up to date. What it does not do is
// switch threads at every decision: a thread whose skipped pure call
// (skipCall) carries it past its decision's end banks the steps past it
// as credit (see runThread), and a decision that picks a thread holding
// enough credit is charged against it instead of running anything.
//
// Nearly every decision is charged in full, so a decision costs what
// drawing it costs. No quantum is longer than gmax = 2*PreemptMean+1
// steps: while every runnable thread holds b·gmax credit and the step
// limit is b·gmax steps away, the next b decisions are charged in full
// whatever they pick. decide draws such runs in a loop (alfg.charges)
// that tests nothing but the draws' rejection bounds and touches no
// thread, and tests decisions one at a time only after the last run.
//
// While a run has only ever had one thread, every decision picks it and
// nothing observes any of them: the thread runs with no end to its
// quantum, and the decisions it owes are drawn only when it spawns or
// yields (settle, decide's one-thread case), where the next decisions
// start to depend on them. A run that never spawns draws nothing, and
// seeds nothing: the generator is seeded at its first draw.

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
	alfgRing            = 1024 // a power of two above the long lag

	lehmerMod = 1<<31 - 1 // the modulus of math/rand's seeding generator
	lehmerMul = 48271     // and its multiplier
)

// seed puts g in the state of rand.NewSource(s). The source reduces s to
// a residue l₀ of 2³¹−1 and steps the Lehmer generator l ↦ 48271·l mod
// 2³¹−1 from it; each of the 607 words of its state is three consecutive
// l's, shifted and XORed, XORed with an additive constant. The k-th step
// is l₀ times the k-th power of 48271, so seed makes each l with one
// multiply from a table (seedWords) instead of stepping 1,841 times.
func (g *alfg) seed(s int64) {
	s %= lehmerMod // as rngSource.Seed reduces it
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = 89482311
	}
	l, r := uint64(s), (*[alfgLong]uint64)(g.ring[alfgRing-alfgLong:])
	for j := range seedWords {
		w := &seedWords[j]
		r[j] = lehmer(l*w.pow[0])<<40 ^ lehmer(l*w.pow[1])<<20 ^ lehmer(l*w.pow[2]) ^ w.cooked
	}
	g.at = alfgRing - 1 // x[-1]: the next step makes x[0]
}

// lehmer is v mod 2³¹−1 for v < 2⁶², by two folds of the Mersenne
// modulus.
func lehmer(v uint64) uint64 {
	v = v&lehmerMod + v>>31
	v = v&lehmerMod + v>>31 // at most 2³¹: 2³¹−1 and 2³¹ are 0 and 1
	return (v + (v+1)>>31) & lehmerMod
}

// seedWord is what x[j-607], the j-th word of a freshly seeded state,
// is made of: the powers of 48271 that give its three Lehmer values, and
// math/rand's additive constant.
type seedWord struct {
	pow    [3]uint64
	cooked uint64
}

var seedWords = seedTable()

// seedTable derives seed's table from math/rand, which stays the only
// authority on seeding: its table of additive constants is not copied.
// rngSource.Seed writes its word i from the 21+3i-th to 23+3i-th Lehmer
// values, and its first output is word 333 plus word 606, so word i is
// x[-274-i] (mod 607, in -607..-1). A freshly seeded source's first 607
// outputs x[0..606] are a whole generator state, and running the
// recurrence backwards over them, x[n-607] = x[n] - x[n-273] for n = 606
// down to 0, yields the 607 values before them: the seeded state. Seeded
// with 1, whose Lehmer values are the powers themselves, XORing those
// out of each word leaves its constant.
func seedTable() (words [alfgLong]seedWord) {
	var pow [21 + 3*alfgLong]uint64 // pow[k] = 48271^k mod 2³¹−1
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * lehmerMul % lehmerMod
	}
	var g alfg
	src := rand.NewSource(1).(rand.Source64)
	for n := 0; n < alfgLong; n++ {
		g.ring[n] = src.Uint64()
	}
	for n := alfgLong - 1; n >= 0; n-- {
		g.ring[(n-alfgLong)&(alfgRing-1)] = g.ring[n] - g.ring[(n-alfgShort)&(alfgRing-1)]
	}
	for i := 0; i < alfgLong; i++ {
		j := (alfgLong - alfgShort - 1 - i + alfgLong) % alfgLong // x[j-607] is word i
		p := [3]uint64{pow[21+3*i], pow[22+3*i], pow[23+3*i]}
		words[j] = seedWord{p, g.ring[alfgRing-alfgLong+j] ^ p[0]<<40 ^ p[1]<<20 ^ p[2]}
	}
	return words
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
// in effect, still runnable, takes the next step. A lone thread is
// returned with no end to its quantum and nothing drawn, and m.lone notes
// the clock its undrawn decisions start at. Otherwise decide draws.
func (m *Machine) schedule() *thread {
	if t := m.threads[m.cur]; t.state == vm.ThreadRunnable && m.quantum > 0 {
		m.quantum--
		return t
	}
	if len(m.runnable) == 0 {
		return nil
	}
	if len(m.threads) == 1 {
		m.lone, m.quantum = m.clock, math.MaxInt
		return m.runnable[0]
	}
	return m.decide()
}

// decide draws decisions from m.clock on: Intn(runnable) for the pick
// and 1+Intn(2*PreemptMean) for a quantum, so a decision covers g =
// 2+Intn steps of the picked thread. Its credit, the steps of a skipped
// call that ran past an earlier decision's end, is charged — the credit,
// and the clock, move by up to g — and a decision charged in full is
// followed by the next one. The thread returned has no credit left and
// m.quantum steps of its decision after the next one. Charging stops at
// the step limit, with the clock there and nil returned; callers check
// it first.
//
// The decisions that the runnable threads' credit and the step limit
// cover whatever they pick go in runs (chargeRun); the ones after the
// last run go one at a time, each tested.
func (m *Machine) decide() *thread {
	gmax := int64(m.preempt.n) + 1
	for {
		b := m.cfg.MaxSteps - m.clock
		for _, t := range m.runnable {
			b = min(b, t.credit)
		}
		if b < gmax {
			break
		}
		m.chargeRun(b / gmax)
	}
	// The runnable set cannot change while decisions are charged, so the
	// loop carries only the generator's position, the clock, the thread
	// in effect and the sum of credit, and stores them when it is done.
	pick, onSchedule, limit := &m.pick[len(m.runnable)-1], m.cfg.Hooks.OnSchedule, m.cfg.MaxSteps
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

// chargeRun makes the next b decisions, each of which decide has made
// sure is charged in full whatever it picks. alfg.charges draws them and
// sums each runnable slot's charges in m.charge, and the threads'
// credit, its sum, the clock and the thread in effect take them when the
// run ends. With OnSchedule set the run goes one decision at a time, and
// the hook fires between them with decide's (from, to, clock); it sees
// the machine as it stood before the run.
func (m *Machine) chargeRun(b int64) {
	n := len(m.runnable)
	charge, onSchedule := m.charge[:n], m.cfg.Hooks.OnSchedule
	at, clock, cur := m.rng.at, m.clock, m.cur
	for b > 0 {
		run := b
		if onSchedule != nil {
			run = 1
		}
		b -= run
		var g int64
		var k int
		at, g, k = m.rng.charges(at, run, m.pick[n-1], m.preempt, charge)
		to := m.runnable[k].ID
		if onSchedule != nil && to != cur {
			onSchedule(cur, to, clock)
		}
		cur, clock = to, clock+g
	}
	for i, t := range m.runnable {
		t.credit -= charge[i]
		charge[i] = 0
	}
	m.ahead -= clock - m.clock
	m.rng.at, m.clock, m.cur = at, clock, cur
}

// charges draws b decisions from position at the way decide's loop does
// — Intn(pick.n) for the runnable slot k, then Intn(preempt.n) for the
// quantum, each drawn again while it exceeds its bound — and adds each
// decision's g = 2+Intn to charge[k]. It returns the new position, the
// g summed and the last slot picked. It tests nothing else per decision,
// and holds the ring and both constants in locals: the stores into the
// ring and into charge would make it reload anything read through m.
func (g *alfg) charges(at uint32, b int64, pick, preempt intnConsts, charge []int64) (uint32, int64, int) {
	r := &g.ring
	var sum int64
	var k int
	for ; b > 0; b-- {
		var v, w uint32
		for {
			at = (at + 1) % alfgRing
			x := r[(at-alfgLong)%alfgRing] + r[(at-alfgShort)%alfgRing]
			r[at] = x
			if v = uint32(x << 1 >> 33); v <= pick.max {
				break
			}
		}
		for {
			at = (at + 1) % alfgRing
			x := r[(at-alfgLong)%alfgRing] + r[(at-alfgShort)%alfgRing]
			r[at] = x
			if w = uint32(x << 1 >> 33); w <= preempt.max {
				break
			}
		}
		k = pick.mod(v)
		q := int64(2 + preempt.mod(w))
		charge[k] += q
		sum += q
	}
	return at, sum, k
}

// settle draws the decisions a lone thread owes, from the one at clock
// m.lone through the one that holds step c, and returns how many steps
// of that decision come after step c. They are decide's decisions with
// one thread runnable — Intn(1) for the pick, which nothing rejects, then
// the quantum — charged to the c-m.lone steps the thread ran alone.
// Every run starts alone at clock 0, so a settle from m.lone == 0 makes
// the run's first draw and seeds the generator. The clock is left at c;
// runThread sets it after the step.
func (m *Machine) settle(c int64) int {
	if m.lone == 0 {
		m.rng.seed(m.cfg.Seed)
	}
	owed := c - m.lone
	m.threads[0].credit, m.ahead, m.clock = owed, owed, m.lone
	m.decide()
	return m.quantum
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
// effect holds credit. It runs the same run again on a spare machine,
// silently (no hooks) and never ahead, to clock c, takes over its state —
// with the Traced bits this run's consumer set, which credit never
// crosses a change of — and hands the old state back (release). A
// re-run that stops at c short of the step limit has executed step c-1
// and reports a hang that is not one; it is dropped, and a fault of step
// c-1 itself is kept.
func (m *Machine) rerun(c int64) {
	r, _ := acquire(m.prog)
	cfg := m.cfg
	silent := cfg
	silent.Hooks = vm.Hooks{}
	r.reset(silent, m.prog.mainIdx)
	r.cfg.MaxSteps, r.noSkip = c, true
	r.run()
	if c < cfg.MaxSteps && r.fault != nil && r.fault.Kind == vm.FaultHang {
		r.fault = nil
	}
	for i, th := range m.threads {
		r.threads[i].Traced = th.Traced
	}
	*m, *r = *r, *m
	m.cfg, m.noSkip, m.skips = cfg, false, r.skips
	r.release()
}
