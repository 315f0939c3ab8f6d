package interp_test

import (
	"fmt"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/interp"
)

// spinSrc runs n loop iterations on each of two threads, so the
// scheduler both keeps the current thread and draws among runnable ones.
const spinSrc = `
global int acc = 0;
void spin(int n) {
	for (int i = 0; i < n; i++) { acc = acc + 1; }
}
int main() {
	int t = spawn(spin, %d);
	spin(%d);
	join(t);
	return acc;
}`

// TestScheduleAllocatesNothingPerStep: a run's allocations do not grow
// with its length. Scheduling happens at every step, so a list built
// per step would show up as allocations proportional to the steps.
func TestScheduleAllocatesNothingPerStep(t *testing.T) {
	allocs := func(n int) (float64, int64) {
		p := ir.MustCompile("spin.mc", fmt.Sprintf(spinSrc, n, n))
		var steps int64
		a := testing.AllocsPerRun(5, func() {
			steps = interp.Run(p, vm.Config{Seed: 1, PreemptMean: 3}).Steps
		})
		return a, steps
	}
	short, shortSteps := allocs(100)
	long, longSteps := allocs(10_000)
	if longSteps < 50*shortSteps {
		t.Fatalf("runs too alike to compare: %d vs %d steps", shortSteps, longSteps)
	}
	if long > 2*short { // a constant few may differ: buffers grow to the schedule's need
		t.Errorf("%.0f allocations over %d steps, %.0f over %d: the interpreter allocates per step",
			short, shortSteps, long, longSteps)
	}
}
