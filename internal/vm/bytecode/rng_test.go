package bytecode

import (
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

// TestDrawsMatchMathRand pins the machine's own generator and its Intn
// replicas to math/rand. The scheduler's RNG consumption order and
// results are part of the determinism contract with the interpreter
// (which draws through rand.Rand), so the state seed() reconstructs, the
// two indices' wrap-arounds, and intn's precomputed rejection bound and
// reciprocal modulo must match bit for bit, draw for draw, for every
// preemption mean and runnable count the fleet can configure — on a
// fresh generator and on a used one that is seeded again, which is what
// every run on a pooled machine does. A grant cut at any of its
// decisions must leave the generator exactly where the interpreter's is
// after making only the decisions kept.
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
				if got, want := m.intn(&pick), ref.Intn(1+i%9); got != want {
					t.Fatalf("mean=%d seed=%d draw=%d: intn(%d)=%d, rand.Intn=%d", mean, seed, i, 1+i%9, got, want)
				}
				if got, want := m.intn(&m.preempt), ref.Intn(2*mean); got != want {
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
			checkGrantCuts(t, seed, n, 1+i%6)
		}
	}
}

// scheduler returns a machine whose scheduler sees n runnable threads
// under preemption mean mean, freshly seeded.
func scheduler(seed int64, n, mean int) *Machine {
	m := &Machine{preempt: newIntn(2 * mean)}
	m.rng.seed(seed)
	for id := 0; id < n; id++ {
		m.runnable = append(m.runnable, &thread{Thread: vm.Thread{ID: id}})
		m.pick = append(m.pick, newIntn(id+1))
	}
	return m
}

// checkGrantCuts makes one grant and cuts it at the first and at the last
// instruction of each of its decisions in turn. Each cut must keep
// exactly the decisions up to the one in effect, hand back the countdown
// left in it, and leave the generator where a rand.Rand that made only
// the kept decisions stands: the next 3×607 values, every lag of the
// recurrence several times over, must agree.
func checkGrantCuts(t *testing.T, seed int64, n, mean int) {
	t.Helper()
	m := scheduler(seed, n, mean)
	m.schedule()
	full := m.grant
	if full.n < 1 || full.n > specMax {
		t.Fatalf("seed=%d n=%d: a grant of %d decisions", seed, n, full.n)
	}
	for j := 0; j < full.n; j++ {
		first := 1
		if j > 0 {
			first = full.end[j-1] + 1
		}
		for _, e := range []int{first, full.end[j]} {
			m := scheduler(seed, n, mean)
			next := m.schedule()
			if q := m.cut(m.quantum - e + 1); q != full.end[j]-e || m.grant.n != j+1 || m.quantum != full.end[j]-1 {
				t.Fatalf("seed=%d n=%d: cut after instruction %d of decision %d: countdown %d, %d decisions, grant %d; want %d, %d, %d",
					seed, n, e, j, q, m.grant.n, m.quantum, full.end[j]-e, j+1, full.end[j]-1)
			}
			ref := rand.New(rand.NewSource(seed))
			for d, start := 0, 0; d <= j; d++ {
				pick, quantum := ref.Intn(n), 1+ref.Intn(2*mean)
				if m.runnable[pick] != next || full.end[d]-start != quantum+1 {
					t.Fatalf("seed=%d n=%d: merged decision %d is (thread %d, %d instructions); rand says (thread %d, %d)",
						seed, n, d, next.ID, full.end[d]-start, pick, quantum+1)
				}
				start = full.end[d]
			}
			for i := 0; i < 3*alfgLong; i++ {
				if got, want := int32(m.rng.int31()), ref.Int31(); got != want {
					t.Fatalf("seed=%d n=%d: cut in decision %d of %d: value %d after it is %d, rand.Int31=%d", seed, n, j, full.n, i, got, want)
				}
			}
		}
	}
}

// TestRejectedDrawEndsGrant: a value Intn would reject ends the merge and
// stays in the generator, so every merged decision takes exactly two
// values. A quantum bound of 2^30+1 makes Intn reject almost half of all
// values; with one runnable thread every pick merges, so only a rejected
// quantum value (or the cap) ends a grant.
func TestRejectedDrawEndsGrant(t *testing.T) {
	const bound = 1<<30 + 1
	short := 0
	for _, seed := range drawSeeds() {
		m := scheduler(seed, 1, 1)
		m.preempt = newIntn(bound)
		m.schedule()
		ref := rand.New(rand.NewSource(seed))
		for d, start := 0, 0; d < m.grant.n; d++ {
			ref.Intn(1)
			if got, want := m.grant.end[d]-start, 2+ref.Intn(bound); got != want {
				t.Fatalf("seed=%d: decision %d grants %d instructions, rand says %d", seed, d, got, want)
			}
			start = m.grant.end[d]
		}
		if m.grant.n == specMax {
			continue
		}
		short++
		pick, quantum := ref.Int31(), ref.Int31()
		if quantum <= int32(m.preempt.max) || m.grant.drawn {
			t.Fatalf("seed=%d: the grant ended after %d decisions on value %d, which Intn(%d) accepts", seed, m.grant.n, quantum, bound)
		}
		if got := [2]int32{int32(m.rng.int31()), int32(m.rng.int31())}; got != [2]int32{pick, quantum} {
			t.Fatalf("seed=%d: after the grant the generator yields %v, want the unconsumed %v", seed, got, [2]int32{pick, quantum})
		}
	}
	if short == 0 {
		t.Fatal("no grant ended on a rejected draw; the test needs some")
	}
}
