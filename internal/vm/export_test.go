package vm

// SpareMemories is how many released address spaces AcquireMemory has
// on hand.
func SpareMemories() int {
	spare.Lock()
	defer spare.Unlock()
	return len(spare.list)
}
