package core

import "sync"

// solverScratch bundles the per-solve working arrays of PM and PG.
// One instance is checked out of scratchPool per solve and returned on exit,
// so a steady-state solve allocates nothing beyond its Solution: the parallel
// sweep engine and the daemon's reconcile loop hit these solvers once per
// case, and the per-case make() churn dominated their allocation profiles.
//
// Only internal scratch lives here. Anything a Solution or Report retains
// (Active, SwitchController, PairController, FlowProg, ControllerLoad) is
// still freshly allocated per solve.
type solverScratch struct {
	rest         []int
	h            []int
	alternatives []int
	floorPairs   []int
	pairScratch  []int
	bucket       []int
	order        []int
	activated    []int
	inactiveCnt  []int
	inTestSet    []bool
	activeAt     []bool
	// nearest-controller cache: row i is nearestBuf[i*M:(i+1)*M], valid when
	// nearestSet[i].
	nearestBuf []int
	nearestSet []bool
	// class-index construction (refineClasses): the refinement tree.
	refine []refineNode
}

var scratchPool = sync.Pool{New: func() any { return new(solverScratch) }}

// growSlice resizes *buf to n without zeroing (callers initialize).
func growSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// grabInts resizes *buf to n and zeroes it.
func grabInts(buf *[]int, n int) []int {
	s := growSlice(buf, n)
	clear(s)
	return s
}

// grabBools resizes *buf to n and clears it.
func grabBools(buf *[]bool, n int) []bool {
	s := growSlice(buf, n)
	clear(s)
	return s
}

// nearestRow returns the delay-ascending controller order for switch i,
// computing it into the pooled cache on first use.
func (sc *solverScratch) nearestRow(p *Problem, i int) []int {
	m := p.NumControllers
	row := sc.nearestBuf[i*m : (i+1)*m]
	if sc.nearestSet[i] {
		return row
	}
	for j := range row {
		row[j] = j
	}
	d := p.Delay[i]
	// Insertion sort with an explicit index tie-break, as NearestControllers.
	for a := 1; a < len(row); a++ {
		for b := a; b > 0; b-- {
			x, y := row[b-1], row[b]
			if d[x] > d[y] || (d[x] == d[y] && x > y) {
				row[b-1], row[b] = y, x
			} else {
				break
			}
		}
	}
	sc.nearestSet[i] = true
	return row
}
