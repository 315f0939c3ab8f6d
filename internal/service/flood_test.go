package service_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"
)

// flood is a seeded burst generator modeling a tenant flood: it yields
// the deterministic inter-submit gaps of a bursty report stream whose
// long-run offered rate averages rps. Submissions inside a burst are
// back to back; the gap between bursts is jittered ±50% around
// burst/rps seconds. The overload test drives its bully tenant from
// it so the flood replays exactly.
type flood struct {
	rng   *rand.Rand
	rps   float64
	burst int
	pos   int
}

// newFlood returns a flood schedule for the given seed, offered rate
// (submits/sec, min 1e-3) and burst size (min 1).
func newFlood(seed int64, rps float64, burst int) *flood {
	if rps < 1e-3 {
		rps = 1e-3
	}
	if burst < 1 {
		burst = 1
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "flood|%d|%g|%d", seed, rps, burst)
	return &flood{rng: rand.New(rand.NewSource(int64(h.Sum64()))), rps: rps, burst: burst}
}

// next returns the gap to wait before the next submission: zero within
// a burst, a jittered burst-sized gap at each burst boundary. The first
// burst fires immediately.
func (f *flood) next() time.Duration {
	var d time.Duration
	if f.pos > 0 && f.pos%f.burst == 0 {
		gap := float64(f.burst) / f.rps
		d = time.Duration(gap * (0.5 + f.rng.Float64()) * float64(time.Second))
	}
	f.pos++
	return d
}

func TestFloodDeterministicBursts(t *testing.T) {
	// Same seed and shape → identical gap sequence.
	a, b := newFlood(3, 50, 10), newFlood(3, 50, 10)
	for i := 0; i < 200; i++ {
		ga, gb := a.next(), b.next()
		if ga != gb {
			t.Fatalf("report %d: gaps differ: %v vs %v", i, ga, gb)
		}
	}

	// Bursts are tight: within a burst the gap is zero, between bursts
	// it is positive and centered on burst/rps.
	f := newFlood(3, 50, 10)
	var gaps []float64
	for i := 0; i < 500; i++ {
		d := f.next()
		if i%10 != 0 || i == 0 {
			if d != 0 {
				t.Fatalf("report %d inside a burst has gap %v, want 0", i, d)
			}
			continue
		}
		if d <= 0 {
			t.Fatalf("report %d between bursts has gap %v, want > 0", i, d)
		}
		gaps = append(gaps, d.Seconds())
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	// E[gap] = (burst/rps) × E[0.5 + U(0,1)] = 0.2s × 1.0.
	if math.Abs(mean-0.2) > 0.05 {
		t.Fatalf("mean inter-burst gap %.3fs, want ≈ 0.2s at 50 rps / burst 10", mean)
	}

	// Different seeds walk different gap sequences.
	c, d := newFlood(3, 50, 10), newFlood(4, 50, 10)
	same := true
	for i := 0; i < 100; i++ {
		if c.next() != d.next() {
			same = false
		}
	}
	if same {
		t.Fatal("two seeds produced identical flood timing")
	}
}
