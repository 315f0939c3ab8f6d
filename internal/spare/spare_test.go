package spare

import (
	"sync"
	"testing"
)

// TestListKeepsWhatItIsGiven: an empty list has nothing to give, Get
// returns the most recent Put first, and items put and taken by many
// goroutines at once all come back, each exactly once.
func TestListKeepsWhatItIsGiven(t *testing.T) {
	var l List[*int]
	if x, ok := l.Get(); ok || x != nil {
		t.Fatalf("empty list gave %v, %v", x, ok)
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if x, _ := l.Get(); x != b {
		t.Fatal("Get did not return the most recent Put")
	}
	if x, _ := l.Get(); x != a {
		t.Fatal("Get did not return the earlier Put second")
	}

	const workers, each = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				x, ok := l.Get()
				if !ok {
					x = new(int)
				}
				*x++
				l.Put(x)
			}
		}()
	}
	wg.Wait()
	seen, uses := map[*int]bool{}, 0
	for {
		x, ok := l.Get()
		if !ok {
			break
		}
		if seen[x] {
			t.Fatal("an item came back twice")
		}
		seen[x] = true
		uses += *x
	}
	if len(seen) == 0 || len(seen) > workers || uses != workers*each {
		t.Fatalf("%d items used %d times, want 1..%d items used %d times", len(seen), uses, workers, workers*each)
	}
}
