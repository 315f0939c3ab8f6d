package bytecode_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/vm/bytecode"
)

// scopeCases pin MiniC's scope rules: block scope, an initializer that
// reads the outer binding, a parameter that shadows a global, a for-init
// variable scoped to its loop, and one slot per declaration, zeroed on
// function entry and not again when its block is re-entered.
var scopeCases = []struct {
	name string
	src  string
	exit int64
}{
	{"inner block shadows", `int main() {
	int x = 1;
	{ int x = 2; x = x + 10; }
	return x;
}`, 1},
	{"initializer reads outer binding", `int main() {
	int x = 5;
	{ int x = x + 1; return x; }
}`, 6},
	{"parameter shadows global", `global int g = 7;
int f(int g) { return g; }
int main() { return f(3) + g; }`, 10},
	{"for-init scoped to its loop", `int main() {
	int s = 0;
	for (int i = 0; i < 3; i++) { s = s + i; }
	{ int i = 40; s = s + i; }
	return s;
}`, 43},
	{"uninitialized local keeps last iteration", `int main() {
	int n = 0;
	int r = 0;
	while (n < 3) { int x; x = x + 1; r = x; n = n + 1; }
	return r;
}`, 3},
	{"sibling blocks get distinct zeroed slots", `int main() {
	{ int a = 1; }
	{ int b; return b + 1; }
}`, 1},
}

// TestScopes runs scopeCases on both engines.
func TestScopes(t *testing.T) {
	for _, c := range scopeCases {
		prog := bytecode.Compile(ir.MustCompile("scope.mc", c.src))
		out := runBoth(t, c.name, prog, vm.Config{Seed: 1, PreemptMean: 3})
		if out.Failed || out.Exit != c.exit {
			t.Errorf("%s: failed=%v exit=%d, want exit %d", c.name, out.Failed, out.Exit, c.exit)
		}
	}
}
