package eval

import "pmedic/internal/scenario"

// Pinned by benchmark/sweep.go's `scenario.builddelta_us` / `eval.engine_*`
// probes; delete with them in the housekeeping `benchmark` PR.

// SweepMode used to select between two sweep engines; there is one.
type SweepMode int

const (
	SweepDelta SweepMode = iota
	SweepScratch
)

// ForEachCaseMode is ForEachCase; the mode is ignored.
func ForEachCaseMode(ctx *scenario.Context, combos [][]int, workers int, _ SweepMode, fn func(idx int, inst *scenario.Instance) error) error {
	return ForEachCase(ctx, combos, workers, fn)
}

// GrayCombinations returns all k-subsets of {0..m-1} (each sorted ascending)
// in revolving-door Gray order: the first subset is {0..k-1}, and every
// adjacent pair of subsets differs by exactly one swapped element.
func GrayCombinations(m, k int) [][]int {
	if k < 0 || k > m || m < 0 {
		return nil
	}
	return grayGen(m, k)
}

// grayGen is R(n, k) = R(n-1, k) ++ reverse(R(n-1, k-1)) each ∪ {n-1}, with
// R(n, 0) = [{}] and R(n, n) = [{0..n-1}].
func grayGen(n, k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	if k == n {
		c := make([]int, n)
		for i := range c {
			c[i] = i
		}
		return [][]int{c}
	}
	out := grayGen(n-1, k)
	tail := grayGen(n-1, k-1)
	for i := len(tail) - 1; i >= 0; i-- {
		c := make([]int, 0, k)
		c = append(c, tail[i]...)
		c = append(c, n-1)
		out = append(out, c)
	}
	return out
}
