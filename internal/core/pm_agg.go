package core

import (
	"math/bits"
	"slices"
	"time"
)

// pmAgg is the class-aggregated implementation of PM. It replays Algorithm 1
// exactly as pmFlat does, but its unit of work is a variant group (agg.go) —
// "count copies of this flow signature in this recovery state" — instead of
// a flow. Every decision pmFlat takes per flow is taken here once per group
// when capacity covers the whole group, and per copy in merged flow-ID order
// (the walker) when a capacity limit cuts a group, so the resulting Solution
// is byte-identical to pmFlat's (property-tested in agg_test.go).
func pmAgg(p *Problem, ci *classIndex) (*Solution, error) {
	start := time.Now()
	s := NewSolution("PM", p)
	st := newAggState(p, ci)
	sc := scratchPool.Get().(*solverScratch)
	defer scratchPool.Put(sc)

	rest := grabInts(&sc.rest, p.NumControllers)
	copy(rest, p.Rest)
	grabInts(&sc.nearestBuf, p.NumSwitches*p.NumControllers)
	grabBools(&sc.nearestSet, p.NumSwitches)

	inTestSet := grabBools(&sc.inTestSet, p.NumSwitches)
	resetTestSet := func() {
		for i := range inTestSet {
			inTestSet[i] = true
		}
	}
	resetTestSet()
	remaining := p.NumSwitches
	sigma := 0
	testCount := 0

	minH := func() int {
		m := int(^uint(0) >> 1)
		st.forEachGroup(func(_ int32, g *aggGroup) {
			if int(g.h) < m {
				m = int(g.h)
			}
		})
		return m
	}

	// floorPairs as in pmFlat, maintained per group: a group at the floor
	// contributes count pairs at each of its template switches (active or
	// not, exactly like the flat rebuild over all Pairs).
	floorPairs := grabInts(&sc.floorPairs, p.NumSwitches)
	rebuildFloor := func() {
		for i := range floorPairs {
			floorPairs[i] = 0
		}
		st.forEachGroup(func(_ int32, g *aggGroup) {
			if int(g.h) != sigma {
				return
			}
			sw, _ := ci.template(g.class)
			for _, i := range sw {
				floorPairs[i] += int(g.count)
			}
		})
	}
	rebuildFloor()
	// leaveFloor debits n floor copies of class c from every hosting switch.
	leaveFloor := func(c int32, n int) {
		sw, _ := ci.template(c)
		for _, i := range sw {
			floorPairs[i] -= n
		}
	}
	advanceSweep := func() {
		resetTestSet()
		remaining = p.NumSwitches
		testCount++
		sigma = minH()
		rebuildFloor()
	}

	type cand struct {
		gid int32
		bit int32
		alt int32
	}
	var cands []cand

	for testCount < p.TotalIterations {
		// Switch selection and controller mapping are aggregate state only:
		// identical to pmFlat.
		delta, i0 := 0, -1
		for i := 0; i < p.NumSwitches; i++ {
			if inTestSet[i] && floorPairs[i] > delta {
				delta, i0 = floorPairs[i], i
			}
		}
		if i0 < 0 {
			advanceSweep()
			continue
		}
		j0 := s.SwitchController[i0]
		if j0 < 0 {
			j0 = mapSwitchPM(p, sc, rest, i0)
			s.SwitchController[i0] = j0
		}
		inTestSet[i0] = false
		remaining--

		// Floor activation at i0. pmFlat's scratch list sorted by
		// (alternatives asc, flow asc) becomes: candidate groups bucketed by
		// alternatives level; a level either fits in rest[j0] entirely (group
		// moves, order inside the level unobservable) or is cut (merged
		// flow-ID walk up to the remaining capacity).
		cands = cands[:0]
		for idx := st.swClassOff[i0]; idx < st.swClassOff[i0+1]; idx++ {
			c, bit := st.swClass[idx], st.swBit[idx]
			for gid := st.classHead[c]; gid >= 0; gid = st.groups[gid].next {
				g := &st.groups[gid]
				if g.count == 0 || int(g.h) != sigma || g.mask&(1<<uint(bit)) != 0 {
					continue
				}
				cands = append(cands, cand{gid, bit, int32(ci.numPairs(c) - bits.OnesCount64(g.mask))})
			}
		}
		slices.SortFunc(cands, func(a, b cand) int { return int(a.alt - b.alt) })
		for li := 0; li < len(cands) && rest[j0] > 0; {
			lj := li
			total := 0
			for lj < len(cands) && cands[lj].alt == cands[li].alt {
				total += int(st.groups[cands[lj].gid].count)
				lj++
			}
			if rest[j0] >= total {
				for _, cd := range cands[li:lj] {
					g := &st.groups[cd.gid]
					n := int(g.count)
					rest[j0] -= n
					leaveFloor(g.class, n)
					st.moveWholeGroup(cd.gid, g.mask|1<<uint(cd.bit))
				}
			} else {
				w := newAggWalker(st)
				for _, cd := range cands[li:lj] {
					w.addSource(cd.gid, cd.bit)
				}
				w.start()
				for rest[j0] > 0 {
					gid, bit, pos, ok := w.next()
					if !ok {
						break
					}
					g := &st.groups[gid]
					rest[j0]--
					leaveFloor(g.class, 1)
					st.addPending(g.class, g.mask|1<<uint(bit), pos)
					w.advance(true)
				}
				w.finish()
			}
			li = lj
		}

		if remaining == 0 {
			advanceSweep()
		}
	}

	// Final pass, as pmFlat: map leftover switches, then alternate
	// (p̄-descending fill, rebalance, upgrade) until a round changes nothing.
	for i := 0; i < p.NumSwitches; i++ {
		if s.SwitchController[i] >= 0 || p.EligiblePairCount(i) == 0 {
			continue
		}
		s.SwitchController[i] = mapLeftoverSwitch(p, sc, rest, i)
	}

	// pmFlat iterates all pairs (p̄ desc, switch asc, flow asc). Template
	// pairs bucketed by (p̄, switch) reproduce that order: cells descend by
	// p̄ then ascend by switch, and the flows of one cell are walked merged.
	type fillCell struct {
		c, bit, sw, pbar int32
	}
	entries := make([]fillCell, 0, len(ci.tmplSwitch))
	maxPBar := int32(0)
	for i := 0; i < p.NumSwitches; i++ {
		for idx := st.swClassOff[i]; idx < st.swClassOff[i+1]; idx++ {
			c, bit := st.swClass[idx], st.swBit[idx]
			pbar := ci.tmplPBar[ci.tmplOff[c]+bit]
			entries = append(entries, fillCell{c, bit, int32(i), pbar})
			if pbar > maxPBar {
				maxPBar = pbar
			}
		}
	}
	// Stable counting sort p̄-descending (entries arrive switch-ascending).
	bucket := grabInts(&sc.bucket, int(maxPBar)+1)
	for _, e := range entries {
		bucket[e.pbar]++
	}
	for v, acc := int(maxPBar), 0; v >= 0; v-- {
		bucket[v], acc = acc, acc+bucket[v]
	}
	sorted := make([]fillCell, len(entries))
	for _, e := range entries {
		sorted[bucket[e.pbar]] = e
		bucket[e.pbar]++
	}

	var fillGids, fillBits []int32
	fill := func() {
		for ei := 0; ei < len(sorted); {
			ej := ei + 1
			for ej < len(sorted) && sorted[ej].pbar == sorted[ei].pbar && sorted[ej].sw == sorted[ei].sw {
				ej++
			}
			j0 := s.SwitchController[sorted[ei].sw]
			if j0 < 0 || rest[j0] <= 0 {
				ei = ej
				continue
			}
			fillGids, fillBits = fillGids[:0], fillBits[:0]
			total := 0
			for _, e := range sorted[ei:ej] {
				for gid := st.classHead[e.c]; gid >= 0; gid = st.groups[gid].next {
					g := &st.groups[gid]
					if g.count == 0 || g.mask&(1<<uint(e.bit)) != 0 {
						continue
					}
					fillGids = append(fillGids, gid)
					fillBits = append(fillBits, e.bit)
					total += int(g.count)
				}
			}
			if total == 0 {
				ei = ej
				continue
			}
			if rest[j0] >= total {
				for x, gid := range fillGids {
					g := &st.groups[gid]
					rest[j0] -= int(g.count)
					st.moveWholeGroup(gid, g.mask|1<<uint(fillBits[x]))
				}
			} else {
				w := newAggWalker(st)
				for x, gid := range fillGids {
					w.addSource(gid, fillBits[x])
				}
				w.start()
				for rest[j0] > 0 {
					gid, bit, pos, ok := w.next()
					if !ok {
						break
					}
					g := &st.groups[gid]
					rest[j0]--
					st.addPending(g.class, g.mask|1<<uint(bit), pos)
					w.advance(true)
				}
				w.finish()
			}
			ei = ej
		}
	}

	rebalanceAgg := func() bool {
		activated := grabInts(&sc.activated, p.NumSwitches)
		inactive := grabInts(&sc.inactiveCnt, p.NumSwitches)
		st.forEachGroup(func(_ int32, g *aggGroup) {
			sw, _ := ci.template(g.class)
			for t, i := range sw {
				if g.mask&(1<<uint(t)) != 0 {
					activated[i] += int(g.count)
				} else {
					inactive[i] += int(g.count)
				}
			}
		})
		return rebalanceCore(p, s, rest, activated, inactive)
	}

	upgradeAgg := func() bool {
		changed := false
		// Classify every group by its swap chain (mask-determined; the rest
		// checks only gate cross-controller steps). Chains that never cross
		// controllers neither read nor net-change rest, so those groups batch
		// in one move; the others are walked per copy in global flow order
		// against live rest — exactly flat upgrade's l = 0..L-1 loop.
		var depGids []int32
		st.forEachGroup(func(gid int32, g *aggGroup) {
			final, steps, cross := st.upgradeChain(g.class, g.mask, s, nil)
			if steps == 0 {
				return
			}
			if cross {
				depGids = append(depGids, gid)
				return
			}
			st.moveWholeGroup(gid, final)
			changed = true
		})
		if len(depGids) > 0 {
			w := newAggWalker(st)
			for _, gid := range depGids {
				w.addSource(gid, 0)
			}
			w.start()
			for {
				gid, _, pos, ok := w.next()
				if !ok {
					break
				}
				g := &st.groups[gid]
				final, steps, _ := st.upgradeChain(g.class, g.mask, s, rest)
				if steps > 0 {
					changed = true
					st.addPending(g.class, final, pos)
					w.advance(true)
				} else {
					w.advance(false)
				}
			}
			w.finish()
		}
		return changed
	}

	for round := 0; round < finalPassRounds; round++ {
		fill()
		moved := rebalanceAgg()
		upgraded := upgradeAgg()
		if !moved && !upgraded {
			break
		}
	}

	// Unmap switches with no active pair, then expand groups to the per-pair
	// Solution encoding.
	activeAt := grabBools(&sc.activeAt, p.NumSwitches)
	st.forEachGroup(func(_ int32, g *aggGroup) {
		if g.mask == 0 {
			return
		}
		sw, _ := ci.template(g.class)
		for m := g.mask; m != 0; m &= m - 1 {
			activeAt[sw[bits.TrailingZeros64(m)]] = true
		}
	})
	for i := range s.SwitchController {
		if !activeAt[i] {
			s.SwitchController[i] = -1
		}
	}
	st.expandActive(s)

	s.Runtime = time.Since(start)
	return s, nil
}

// upgradeChain runs one flow's upgrade swap chain from mask. With rest ==
// nil it simulates the whole chain ignoring capacity and reports whether any
// step moves load across controllers; with live rest it applies the chain as
// flat upgrade would, stopping at the first blocked cross-controller step
// and mutating rest in place.
func (st *aggState) upgradeChain(c int32, mask uint64, s *Solution, rest []int) (final uint64, steps int, cross bool) {
	sw, pbar := st.ci.template(c)
	for {
		worst, best := -1, -1
		for t := range sw {
			if mask&(1<<uint(t)) != 0 {
				if worst < 0 || pbar[t] < pbar[worst] {
					worst = t
				}
				continue
			}
			if s.SwitchController[sw[t]] < 0 {
				continue
			}
			if best < 0 || pbar[t] > pbar[best] {
				best = t
			}
		}
		if worst < 0 || best < 0 || pbar[best] <= pbar[worst] {
			break
		}
		jOld := int(s.SwitchController[sw[worst]])
		jNew := int(s.SwitchController[sw[best]])
		if jNew != jOld {
			cross = true
			if rest != nil {
				if rest[jNew] <= 0 {
					break
				}
				rest[jOld]++
				rest[jNew]--
			}
		}
		mask = mask&^(1<<uint(worst)) | 1<<uint(best)
		steps++
	}
	return mask, steps, cross
}

// expandActive writes every group's mask out to the per-flow Active array:
// member flow l with template bit t set activates pair flowPairs[off(l)+t].
func (st *aggState) expandActive(s *Solution) {
	st.forEachGroup(func(_ int32, g *aggGroup) {
		if g.mask == 0 {
			return
		}
		for _, sp := range g.spans {
			for pos := sp.lo; pos < sp.hi; pos++ {
				l := st.ci.members[pos]
				for m := g.mask; m != 0; m &= m - 1 {
					s.Active[st.p.pairOf(l, int32(bits.TrailingZeros64(m)))] = true
				}
			}
		}
	})
}
