//go:build race

package bytecode_test

// raceEnabled reports that the race detector is on. Under it sync.Pool
// drops a share of what it is handed, so exact allocation ceilings that
// count on warm pools do not hold.
const raceEnabled = true
