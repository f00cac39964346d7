package flow

// SetParallelMinNodes moves the graph size from which the start-up passes
// fan out and returns the size it replaced.
func SetParallelMinNodes(n int) int {
	old := parallelMinNodes
	parallelMinNodes = n
	return old
}
