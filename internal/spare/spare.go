// Package spare keeps what a finished run leaves behind — a machine, a
// ring buffer, a trap log, decode scratch — for the next run to reuse.
package spare

import "sync"

// List is a free list: a mutex and a slice. The zero value is an empty
// list ready for use, and a List is safe for concurrent use.
//
// It is a list, not the sync package's Pool. A Pool drops what two GCs
// in a row find in it, strands what sits in another processor's private
// slot when the goroutine moves, and under the race detector drops a
// share of everything it is handed; a diagnosis collects garbage often
// enough that pooled state was rebuilt for most runs. A list keeps what
// it is given, so it holds at most as many items as were ever out at
// once, and a caller that must not pin an oversized item declines to
// Put it.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get takes the most recently Put item off the list; ok is false, and x
// the zero T, when the list is empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	var zero T
	l.items[n-1] = zero // an item its taker never Puts back is not pinned
	l.items = l.items[:n-1]
	return x, true
}

// Put hands x on to a later Get; the caller must not touch x again.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}
