package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The box the numbers are recorded on is a VM on a shared host. When the
// hypervisor runs another guest on this VM's cores, the kernel books the
// time it took away as "steal" in /proc/stat. That time is the host's,
// not the program's, and it comes in phases of minutes during which a
// fifth to a half of the cores is gone: uncorrected, two runs of the same
// code a few minutes apart differ by a factor of two. The benchmark
// therefore reads the steal counter around everything it times and
// reports each timing at zero steal (see steadied).

// userHZ is the unit of /proc/stat: 1/100 s on every Linux this runs on.
const userHZ = 100

// stolenSeconds is the CPU time the hypervisor has taken from this VM
// since boot, summed over its cores; 0 where /proc/stat does not say.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / userHZ
}

// stopwatch times an interval and the steal that fell into it.
type stopwatch struct {
	start  time.Time
	stolen float64
}

func startWatch() stopwatch { return stopwatch{start: time.Now(), stolen: stolenSeconds()} }

// stop returns the interval's length and the CPU-seconds stolen in it.
func (s stopwatch) stop() (time.Duration, float64) {
	return time.Since(s.start), stolenSeconds() - s.stolen
}

// stealKappa fits, over intervals of identical work, how much of a
// stolen CPU-second ends up in the interval's length. With base the
// length at zero steal, length = base + kappa*stolen, which in rates is
// the straight line rate = rate0 * (1 - kappa*x), x being the interval's
// stolen CPU-seconds per second. The line is Theil-Sen's (median of the
// pairwise slopes), which a few odd intervals do not move. kappa is
// about 0.85 for one busy thread and less the more threads share the
// loss; it is held to [0, 1], so that intervals with no steal to speak
// of (x of a few hundredths) are left as measured whatever the fit says.
func stealKappa(x, rate []float64) float64 {
	var slopes []float64
	for i := range x {
		for j := i + 1; j < len(x); j++ {
			if dx := x[j] - x[i]; dx != 0 {
				slopes = append(slopes, (rate[j]-rate[i])/dx)
			}
		}
	}
	if len(slopes) == 0 {
		return 0
	}
	slope := median(slopes)
	at0 := make([]float64, len(x))
	for i := range x {
		at0[i] = rate[i] - slope*x[i]
	}
	rate0 := median(at0)
	if rate0 <= 0 {
		return 0
	}
	return min(1, max(0, -slope/rate0))
}

// steadied is what one series of intervals of identical work reads at
// zero steal: secs are the lengths, stolen the CPU-seconds taken from
// the VM during each. It returns the fitted kappa and per interval the
// share of its length that was the program's own (1 = nothing stolen):
// a duration measured inside interval i is multiplied by own[i], a rate
// divided by it.
func steadied(secs, stolen []float64) (kappa float64, own []float64) {
	x := make([]float64, len(secs))
	rate := make([]float64, len(secs))
	for i := range secs {
		x[i] = ratio(stolen[i], secs[i])
		rate[i] = ratio(1, secs[i])
	}
	kappa = stealKappa(x, rate)
	own = make([]float64, len(secs))
	for i := range own {
		// stolen is summed over the cores, so x reaches NumCPU when all
		// of them are taken at once; the floor keeps a fit that is a
		// little high from turning such an interval negative.
		own[i] = max(0.05, 1-kappa*x[i])
	}
	return kappa, own
}
