package bytecode

import (
	"math/rand"
	"testing"
)

// TestDrawsMatchMathRand pins the machine's own generator and its Intn
// replicas to math/rand. The scheduler's RNG consumption order and
// results are part of the determinism contract with the interpreter
// (which draws through rand.Rand), so the state seed() reconstructs, the
// two indices' wrap-arounds, and intn's precomputed rejection bound and
// reciprocal modulo must match bit for bit, draw for draw, for every
// preemption mean and runnable count the fleet can configure — on a
// fresh generator and on a used one that is seeded again, which is what
// every run on a pooled machine does.
func TestDrawsMatchMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, -89482311, 89482311, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, -1 << 40, 1<<63 - 1, -1 << 63}
	for s := int64(2); len(seeds) < 72; s++ {
		seeds = append(seeds, s*s*s*7919)
	}
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
}
