package bytecode

import (
	"fmt"
	"math/rand"
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
// every run on a pooled machine does. Decisions charged to credit must
// be the interpreter's too, and leave the generator where a rand.Rand
// that made the same decisions stands.
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
	for i, seed := range seeds {
		for n := 1; n <= 3; n++ {
			checkChargedDecisions(t, seed, n, 1+i%6)
		}
	}
}

// checkChargedDecisions gives n runnable threads credit and lets one
// schedule() call charge decisions to it until one is not covered. Every
// decision, the clock, the credit left, the quantum of the thread picked
// and the OnSchedule calls must be what a rand.Rand making the
// interpreter's decisions yields, and the generator must stand where that
// rand.Rand does: the next 3×607 values, every lag of the recurrence
// several times over, must agree.
func checkChargedDecisions(t *testing.T, seed int64, n, mean int) {
	t.Helper()
	m := &Machine{preempt: newIntn(2 * mean)}
	m.rng.seed(seed)
	m.cfg.MaxSteps = 1 << 40
	credit := []int64{90, 13, 150}[:n]
	var switches, want []int
	m.cfg.Hooks.OnSchedule = func(from, to int, clock int64) { switches = append(switches, from, to, int(clock)) }
	for id := 0; id < n; id++ {
		m.threads = append(m.threads, &thread{Thread: vm.Thread{ID: id}, credit: credit[id]})
		m.ahead += credit[id]
		m.pick = append(m.pick, newIntn(id+1))
	}
	m.runnable = m.threads
	next := m.schedule()

	ref := rand.New(rand.NewSource(seed))
	left := append([]int64(nil), credit...)
	var clock int64
	cur, quantum := 0, 0
	for {
		pick, g := ref.Intn(n), int64(2+ref.Intn(2*mean))
		if pick != cur {
			want = append(want, cur, pick, int(clock))
			cur = pick
		}
		done := min(left[pick], g)
		left[pick] -= done
		clock += done
		if done < g {
			quantum = int(g - done - 1)
			break
		}
	}
	var sum int64
	for id, th := range m.threads {
		sum += th.credit
		if th.credit != left[id] {
			t.Fatalf("seed=%d n=%d: thread %d holds %d credit, rand says %d", seed, n, id, th.credit, left[id])
		}
	}
	if next.ID != cur || m.clock != clock || m.quantum != quantum || m.ahead != sum {
		t.Fatalf("seed=%d n=%d: schedule() picked %d at clock %d with quantum %d and %d credit; rand says %d, %d, %d, %d",
			seed, n, next.ID, m.clock, m.quantum, m.ahead, cur, clock, quantum, sum)
	}
	if fmt.Sprint(switches) != fmt.Sprint(want) {
		t.Fatalf("seed=%d n=%d: OnSchedule (from, to, clock) calls %v, rand says %v", seed, n, switches, want)
	}
	for i := 0; i < 3*alfgLong; i++ {
		if got, want := int32(m.rng.int31()), ref.Int31(); got != want {
			t.Fatalf("seed=%d n=%d: value %d after the decisions is %d, rand.Int31=%d", seed, n, i, got, want)
		}
	}
}
