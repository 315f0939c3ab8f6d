package bytecode

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vm"
)

// drawSeeds are the generator seeds the draw tests sweep: the edges of
// int64 and of the 31-bit seed reduction, and cubes in between.
func drawSeeds() []int64 {
	seeds := []int64{0, 1, -1, -89482311, 89482311, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, -1 << 40, 1<<63 - 1, -1 << 63}
	for s := int64(2); len(seeds) < 72; s++ {
		seeds = append(seeds, s*s*s*7919)
	}
	return seeds
}

// int31 is one rand.(*Rand).Int31 from g.
func (g *alfg) int31() uint32 {
	var v uint32
	g.at, v = g.step(g.at)
	return v
}

// intn is one Intn(c.n) draw the way schedule() makes it.
func intn(g *alfg, c *intnConsts) int {
	v := g.int31()
	for v > c.max {
		v = g.int31()
	}
	return c.mod(v)
}

// TestDrawsMatchMathRand pins the machine's own generator and its Intn
// constants to math/rand. The scheduler's RNG consumption order and
// results are part of the determinism contract with the interpreter
// (which draws through rand.Rand), so the state seed() reconstructs, the
// two indices' wrap-arounds, and intn's precomputed rejection bound and
// reciprocal modulo must match bit for bit, draw for draw, for every
// preemption mean and runnable count the fleet can configure — on a
// fresh generator and on a used one that is seeded again, which is what
// every run that draws does on a spare machine. Decisions charged to
// credit, and those a lone thread settles, must be the interpreter's
// too, and leave the generator where a rand.Rand that made the same
// decisions stands.
func TestDrawsMatchMathRand(t *testing.T) {
	seeds := drawSeeds()
	var m Machine // one machine throughout: every seeding but the first re-seeds a used generator
	for _, seed := range seeds {
		for mean := 1; mean <= 24; mean++ {
			m.rng.seed(seed)
			m.preempt = newIntn(2 * mean)
			ref := rand.New(rand.NewSource(seed))
			// 2 x 1000 draws or more: past three wrap-arounds of both indices.
			for i := 0; i < 1000; i++ {
				// Interleave a runnable-count draw like schedule() does, so
				// both generators stay in lockstep across mixed call patterns.
				pick := newIntn(1 + i%9)
				if got, want := intn(&m.rng, &pick), ref.Intn(1+i%9); got != want {
					t.Fatalf("mean=%d seed=%d draw=%d: intn(%d)=%d, rand.Intn=%d", mean, seed, i, 1+i%9, got, want)
				}
				if got, want := intn(&m.rng, &m.preempt), ref.Intn(2*mean); got != want {
					t.Fatalf("mean=%d seed=%d draw=%d: intn(%d)=%d, rand.Intn=%d", mean, seed, i, 2*mean, got, want)
				}
			}
			// The whole state, not just the bits the Intn draws looked at.
			for j := 0; j < alfgRing; j++ {
				if got, want := int32(m.rng.int31()), ref.Int31(); got != want {
					t.Fatalf("mean=%d seed=%d: int31 %d after the Intn draws: %d, rand.Int31=%d", mean, seed, j, got, want)
				}
			}
		}
	}
	spans := 0
	for i, seed := range seeds {
		mean := 1 + i%6
		for n := 1; n <= 4; n++ {
			for _, c := range chargedCases(seed, n, mean, i) {
				cm := chargingMachine(seed, mean, c.credit, c.limit, c.cur)
				ref := rand.New(rand.NewSource(seed))
				checkDecisions(t, cm, fmt.Sprintf("seed=%d mean=%d %+v", seed, mean, c), c.hook, ref.Intn, func() int32 { return ref.Int31() })
			}
		}
		spans += checkSettle(t, &m, seed, 1+i%24)
	}
	if spans == 0 {
		t.Fatal("no settle spans more than one run of covered decisions")
	}
}

// chargedCase is one start of a schedule() call that charges decisions:
// the runnable threads' credit, the step limit, the thread in effect,
// and whether OnSchedule is set.
type chargedCase struct {
	credit []int64
	limit  int64
	cur    int
	hook   bool
}

// chargedCases are the starts checked for n runnable threads at a seed.
// No quantum exceeds gmax = 2*mean+1, so decide charges the first
// b = min(credit, limit-clock)/gmax decisions without a stop test. Every
// thread's credit is k·gmax−1, k·gmax and k·gmax+1 in turn, for a k that
// differs by thread and by seed. The step limit is far; where the
// first such run's last decision ends, one step before that, or half
// way; or at the run's bound b·gmax. The thread in effect is thread 0
// or a blocked thread, and OnSchedule is set or not.
func chargedCases(seed int64, n, mean, i int) []chargedCase {
	gmax := int64(2*mean + 1)
	ks := []int64{1, 2, 7, 30, 200}
	var cases []chargedCase
	for d := range 3 {
		credit := make([]int64, n)
		for id := range credit {
			credit[id] = ks[(id+i)%len(ks)]*gmax + int64((id+d)%3) - 1
		}
		b := slices.Min(credit) / gmax
		ref := rand.New(rand.NewSource(seed))
		var end int64 // the clock after the first b decisions
		for range b {
			ref.Intn(n)
			end += int64(2 + ref.Intn(2*mean))
		}
		for _, limit := range []int64{1 << 40, end, end - 1, end/2 + 1, b * gmax} {
			for _, hook := range []bool{false, true} {
				cases = append(cases, chargedCase{credit, max(limit, 1), (i + d) % 2 * n, hook})
			}
		}
	}
	return cases
}

// checkSettle lets a lone thread on m settle its decisions at a run of
// steps, each a yield, so that the next decision starts right after it.
// The steps left of each settled decision, and the generator after the
// last settle, must be what a rand.Rand making the interpreter's
// decisions yields. m's generator was left by another seed: the first
// settle must seed it with the run's. It returns how many settles span
// more than one run of covered decisions (decide).
func checkSettle(t *testing.T, m *Machine, seed int64, mean int) int {
	t.Helper()
	m.cfg.Seed, m.cfg.MaxSteps, m.preempt, m.lone = seed, 1<<40, newIntn(2*mean), 0
	m.threads = []*thread{{}}
	m.runnable, m.pick, m.charge = m.threads, []intnConsts{newIntn(1)}, []int64{0}
	ref := rand.New(rand.NewSource(seed))
	gmax := int64(2*mean + 1)
	spans := 0
	var start int64 // where the interpreter's next decision starts
	for _, c := range []int64{0, 1, 2, 30, 31, 500, 4000, 40000} {
		// The first run covers b = (c-start)/gmax decisions; a second one
		// follows when they leave gmax steps or more.
		end, b := start, (c-start)/gmax
		for j := int64(0); end <= c; j++ {
			if j == b && c-end >= gmax {
				spans++
			}
			ref.Intn(1)
			end += int64(2 + ref.Intn(2*mean))
		}
		if got, want := m.settle(c), int(end-1-c); got != want {
			t.Fatalf("seed=%d mean=%d: settle(%d) from %d leaves %d steps, rand says %d", seed, mean, c, start, got, want)
		}
		start = c + 1
		m.lone = start // what schedule() notes after the yield
	}
	for i := 0; i < 3*alfgLong; i++ {
		if got, want := int32(m.rng.int31()), ref.Int31(); got != want {
			t.Fatalf("seed=%d mean=%d: value %d after the settles is %d, rand.Int31=%d", seed, mean, i, got, want)
		}
	}
	return spans
}

// chargingMachine is a machine at clock 0 whose runnable threads 0..n-1
// hold credit, with thread n blocked and cur in effect: the start of a
// schedule() call that charges decisions.
func chargingMachine(seed int64, mean int, credit []int64, limit int64, cur int) *Machine {
	n := len(credit)
	m := &Machine{preempt: newIntn(2 * mean), cur: cur}
	m.rng.seed(seed)
	m.cfg.MaxSteps = limit
	for id := 0; id <= n; id++ {
		th := &thread{Thread: vm.Thread{ID: id}, state: vm.ThreadBlocked}
		if id < n {
			th.state, th.credit = vm.ThreadRunnable, credit[id]
			m.ahead += credit[id]
		}
		m.threads = append(m.threads, th)
		m.pick = append(m.pick, newIntn(id+1))
		m.charge = append(m.charge, 0)
	}
	m.runnable = slices.Clone(m.threads[:n])
	return m
}

// checkDecisions lets one schedule() call on m, a chargingMachine,
// charge decisions until one is not covered or the step limit is
// reached. Every decision, the clock, the credit left, the thread
// picked, its quantum and the OnSchedule calls must be what the
// interpreter's decisions, drawn one at a time by draw, yield, and the
// generator must stand where draw leaves it: the next 3×607 values
// (next31), every lag of the recurrence several times over, must agree.
// draw stands for rand.Intn on m's generator.
func checkDecisions(t *testing.T, m *Machine, name string, hook bool, draw func(int) int, next31 func() int32) {
	t.Helper()
	n, mean, limit, cur := len(m.runnable), int(m.preempt.n/2), m.cfg.MaxSteps, m.cur
	left := make([]int64, n)
	for id, th := range m.runnable {
		left[id] = th.credit
	}
	var switches, want []int
	if hook {
		m.cfg.Hooks.OnSchedule = func(from, to int, clock int64) { switches = append(switches, from, to, int(clock)) }
	}
	next := m.schedule()

	var clock int64
	quantum, picked := 0, -1
	for clock < limit {
		pick, g := draw(n), int64(2+draw(2*mean))
		if hook && pick != cur {
			want = append(want, cur, pick, int(clock))
		}
		cur = pick
		done := min(left[pick], g, limit-clock)
		left[pick] -= done
		clock += done
		if done < g {
			quantum, picked = int(g-done-1), pick
			break
		}
	}
	var sum int64
	for id, th := range m.runnable {
		sum += th.credit
		if th.credit != left[id] {
			t.Fatalf("%s: thread %d holds %d credit, rand says %d", name, id, th.credit, left[id])
		}
	}
	got := -1
	if next != nil {
		got = next.ID
	}
	if got != picked || m.cur != cur || m.clock != clock || m.quantum != quantum || m.ahead != sum {
		t.Fatalf("%s: schedule() returned %d (cur %d) at clock %d with quantum %d and %d credit; rand says %d, %d, %d, %d, %d",
			name, got, m.cur, m.clock, m.quantum, m.ahead, picked, cur, clock, quantum, sum)
	}
	if fmt.Sprint(switches) != fmt.Sprint(want) {
		t.Fatalf("%s: OnSchedule (from, to, clock) calls %v, rand says %v", name, switches, want)
	}
	for i := 0; i < 3*alfgLong; i++ {
		if got, want := int32(m.rng.int31()), next31(); got != want {
			t.Fatalf("%s: value %d after the decisions is %d, rand.Int31=%d", name, i, got, want)
		}
	}
}

// TestRejectedDrawInChargeRun writes the generator so that a pick draw
// and a quantum draw inside a run of covered decisions each exceed their
// Intn bound, and holds the run to the same decisions made one at a
// time with intn on a copy of the generator, which rejects both and
// takes the next value. Natural seeds reject with probability below
// n/2³¹ per draw, so no seed sweep reaches this.
func TestRejectedDrawInChargeRun(t *testing.T) {
	const mean = 3 // neither 3 runnable threads nor 2*mean is a power of two: both bounds reject
	credit := []int64{500, 700, 600}
	for _, hook := range []bool{false, true} {
		m := chargingMachine(1, mean, credit, 1<<40, 0)
		// The k-th value from here is ring[at+k-607] + ring[at+k-273], two
		// values already drawn for k ≤ 273: rewrite the first so that bits
		// 32..62 of the sum are all ones, 2³¹-1, above both bounds.
		var drawn []int
		reject := func(k uint32) {
			at := m.rng.at + k
			m.rng.ring[(at-alfgLong)%alfgRing] = 0x7fffffff<<32 - m.rng.ring[(at-alfgShort)%alfgRing]
			drawn = append(drawn, int(k))
		}
		reject(5)  // decision 2's pick: decisions 0 and 1 draw values 1-4
		reject(11) // decision 4's quantum: decision 2 draws again at 6 and 7, decision 3 at 8 and 9
		ref, at := m.rng, m.rng.at
		var pos []int // the value each accepted draw took, from 1
		draw := func(n int) int {
			c := newIntn(n)
			r := intn(&ref, &c)
			pos = append(pos, int((ref.at-at)%alfgRing))
			return r
		}
		checkDecisions(t, m, fmt.Sprintf("hook=%v", hook), hook, draw, func() int32 { return int32(ref.int31()) })
		// The run of covered decisions (min credit / gmax = 500/7 of them)
		// passed over both rewritten values, and intn took the next one.
		if len(pos) < 12 || !slices.Equal(pos[4:10], []int{6, 7, 8, 9, 10, 12}) {
			t.Fatalf("hook=%v: rewrote values %v, yet the accepted draws took values %v", hook, drawn, pos[:min(len(pos), 12)])
		}
	}
}

// seeded is BenchmarkSeed's generator, kept where the compiler cannot
// drop the seeding.
var seeded alfg

// BenchmarkSeed prices seeding the scheduler's generator, which every
// run that spawns does once, at its first draw (settle).
func BenchmarkSeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seeded.seed(int64(i) * 7919)
	}
}
