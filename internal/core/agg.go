package core

import "container/heap"

// This file holds the state machinery of the aggregated PM path (pm_agg.go):
// variant groups and the merged-order walker.
//
// Within one equivalence class (classes.go), flows start indistinguishable
// and only diverge when a capacity limit cuts an operation mid-class. The
// aggregated solver therefore keeps, per class, a set of *variant groups*:
// all member copies that currently share the same activation mask (a uint64
// over the class's template pairs), stored as sorted position runs into the
// class's member list. Whole-group operations (the common case) cost O(1) in
// the member count; only the copies an operation actually splits are touched
// individually, in exactly the global flow-ID order the per-flow solver
// iterates in — which is what keeps the aggregated output byte-identical.

// span is a half-open run [lo, hi) of positions into classIndex.members.
type span struct{ lo, hi int32 }

// aggGroup is one variant group: group.count copies of class `class` whose
// activation state is `mask`, at programmability h = Σ p̄ over set bits.
// Groups of one class form a singly linked list via next/classHead.
type aggGroup struct {
	class int32
	next  int32 // next group of the same class, -1 at end
	mask  uint64
	h     int32
	count int32
	spans []span
}

// aggState is the mutable aggregated solver state over a class index.
type aggState struct {
	p  *Problem
	ci *classIndex

	groups    []aggGroup
	classHead []int32 // head of each class's group list, -1 when empty

	// swClasses CSR: for each switch, the (class, bit) template pairs located
	// there — the aggregated counterpart of a switch's run of Pairs.
	swClassOff []int32
	swClass    []int32 // class IDs
	swBit      []int32 // template bit within the class

	// pending copy moves gathered by a walker, flushed per operation.
	pending []pendingTarget
}

type pendingTarget struct {
	class     int32
	mask      uint64
	positions []int32 // ascending member positions moved to this mask
}

// newAggState seeds one all-inactive (mask 0, h 0) group per class and builds
// the switch → (class, bit) index.
func newAggState(p *Problem, ci *classIndex) *aggState {
	st := &aggState{
		p:         p,
		ci:        ci,
		groups:    make([]aggGroup, ci.numClasses),
		classHead: make([]int32, ci.numClasses),
	}
	for c := 0; c < ci.numClasses; c++ {
		lo, hi := ci.memberOff[c], ci.memberOff[c+1]
		st.groups[c] = aggGroup{
			class: int32(c),
			next:  -1,
			count: hi - lo,
			spans: []span{{lo, hi}},
		}
		st.classHead[c] = int32(c)
	}
	st.swClassOff = make([]int32, p.NumSwitches+1)
	for _, sw := range ci.tmplSwitch {
		st.swClassOff[sw+1]++
	}
	for i := 0; i < p.NumSwitches; i++ {
		st.swClassOff[i+1] += st.swClassOff[i]
	}
	st.swClass = make([]int32, len(ci.tmplSwitch))
	st.swBit = make([]int32, len(ci.tmplSwitch))
	cur := make([]int32, p.NumSwitches)
	copy(cur, st.swClassOff[:p.NumSwitches])
	for c := int32(0); c < int32(ci.numClasses); c++ {
		sw, _ := ci.template(c)
		for t, s := range sw {
			st.swClass[cur[s]] = c
			st.swBit[cur[s]] = int32(t)
			cur[s]++
		}
	}
	return st
}

// forEachGroup calls fn for every live group, unlinking dead (count 0) ones
// in passing.
func (st *aggState) forEachGroup(fn func(gid int32, g *aggGroup)) {
	for c := range st.classHead {
		prev := int32(-1)
		for gid := st.classHead[c]; gid >= 0; {
			g := &st.groups[gid]
			next := g.next
			if g.count == 0 {
				if prev < 0 {
					st.classHead[c] = next
				} else {
					st.groups[prev].next = next
				}
			} else {
				fn(gid, g)
				prev = gid
			}
			gid = next
		}
	}
}

// findGroup returns the live group of (class, mask), or -1.
func (st *aggState) findGroup(class int32, mask uint64) int32 {
	for gid := st.classHead[class]; gid >= 0; gid = st.groups[gid].next {
		if g := &st.groups[gid]; g.count > 0 && g.mask == mask {
			return gid
		}
	}
	return -1
}

// newGroup links a fresh empty group for (class, mask) and returns its ID.
func (st *aggState) newGroup(class int32, mask uint64) int32 {
	gid := int32(len(st.groups))
	st.groups = append(st.groups, aggGroup{
		class: class,
		next:  st.classHead[class],
		mask:  mask,
		h:     st.ci.maskProg(class, mask),
	})
	st.classHead[class] = gid
	return gid
}

// mergeSpans merges ascending disjoint runs b into ascending disjoint a,
// coalescing adjacencies.
func mergeSpans(a, b []span) []span {
	if len(a) == 0 {
		return append([]span(nil), b...)
	}
	out := make([]span, 0, len(a)+len(b))
	push := func(s span) {
		if n := len(out); n > 0 && out[n-1].hi == s.lo {
			out[n-1].hi = s.hi
		} else {
			out = append(out, s)
		}
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].lo < b[j].lo {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	for ; i < len(a); i++ {
		push(a[i])
	}
	for ; j < len(b); j++ {
		push(b[j])
	}
	return out
}

// spansFromPositions turns an ascending position list into runs.
func spansFromPositions(pos []int32) []span {
	var out []span
	for _, pp := range pos {
		if n := len(out); n > 0 && out[n-1].hi == pp {
			out[n-1].hi = pp + 1
		} else {
			out = append(out, span{pp, pp + 1})
		}
	}
	return out
}

// moveWholeGroup retargets every copy of group gid to newMask: either a pure
// relabel (no live group holds newMask) or a span merge into the one that
// does. The O(1)/O(spans) whole-group move is the aggregation payoff.
func (st *aggState) moveWholeGroup(gid int32, newMask uint64) {
	g := &st.groups[gid]
	if g.mask == newMask || g.count == 0 {
		return
	}
	if tid := st.findGroup(g.class, newMask); tid >= 0 && tid != gid {
		t := &st.groups[tid]
		t.spans = mergeSpans(t.spans, g.spans)
		t.count += g.count
		g.count = 0
		g.spans = g.spans[:0]
		return
	}
	g.mask = newMask
	g.h = st.ci.maskProg(g.class, newMask)
}

// addPending records one copy (by member position) headed for (class, mask).
// Positions arrive globally ascending during a walk, hence ascending per
// target as well.
func (st *aggState) addPending(class int32, mask uint64, pos int32) {
	for i := range st.pending {
		if st.pending[i].class == class && st.pending[i].mask == mask {
			st.pending[i].positions = append(st.pending[i].positions, pos)
			return
		}
	}
	st.pending = append(st.pending, pendingTarget{class: class, mask: mask, positions: []int32{pos}})
}

// flushPending folds all pending copy moves into their target groups. Must
// run after every walk, before any state is read again.
func (st *aggState) flushPending() {
	for i := range st.pending {
		pt := &st.pending[i]
		if len(pt.positions) == 0 {
			continue
		}
		gid := st.findGroup(pt.class, pt.mask)
		if gid < 0 {
			gid = st.newGroup(pt.class, pt.mask)
		}
		g := &st.groups[gid]
		g.spans = mergeSpans(g.spans, spansFromPositions(pt.positions))
		g.count += int32(len(pt.positions))
		pt.positions = pt.positions[:0]
	}
	st.pending = st.pending[:0]
}

// aggWalker iterates the copies of a set of source groups in ascending global
// flow-ID order (classIndex.members positions translate to flow IDs, and
// member lists are flow-ascending, so a heap over per-group cursors yields
// the exact order pmFlat uses). The caller consumes or keeps
// each copy; consumed copies are routed through aggState.pending, kept and
// unvisited copies are written back to their source groups on finish.
type aggWalker struct {
	st   *aggState
	cur  []walkCursor
	kept [][]int32 // per heap-entry-origin source: kept positions, ascending
	gids []int32   // source group IDs, parallel to kept
}

type walkCursor struct {
	src  int32 // index into gids/kept
	span int32
	pos  int32
	flow int32 // heap key: ci.members[pos]
	tag  int32 // caller payload (e.g. template bit)
}

func (w *aggWalker) Len() int           { return len(w.cur) }
func (w *aggWalker) Less(i, j int) bool { return w.cur[i].flow < w.cur[j].flow }
func (w *aggWalker) Swap(i, j int)      { w.cur[i], w.cur[j] = w.cur[j], w.cur[i] }
func (w *aggWalker) Push(x any)         { w.cur = append(w.cur, x.(walkCursor)) }
func (w *aggWalker) Pop() any           { n := len(w.cur) - 1; c := w.cur[n]; w.cur = w.cur[:n]; return c }

func newAggWalker(st *aggState) *aggWalker {
	return &aggWalker{st: st}
}

// addSource enrolls group gid with an opaque tag. The group's spans are taken
// over by the walker until finish().
func (w *aggWalker) addSource(gid int32, tag int32) {
	g := &w.st.groups[gid]
	if g.count == 0 {
		return
	}
	src := int32(len(w.gids))
	w.gids = append(w.gids, gid)
	w.kept = append(w.kept, nil)
	w.cur = append(w.cur, walkCursor{
		src:  src,
		pos:  g.spans[0].lo,
		flow: w.st.ci.members[g.spans[0].lo],
		tag:  tag,
	})
}

// start heapifies after all sources are added.
func (w *aggWalker) start() { heap.Init(w) }

// next returns the smallest-flow pending copy without consuming it, or
// ok=false when the walk is exhausted.
func (w *aggWalker) next() (gid int32, tag int32, pos int32, ok bool) {
	if len(w.cur) == 0 {
		return 0, 0, 0, false
	}
	c := &w.cur[0]
	return w.gids[c.src], c.tag, c.pos, true
}

// advance moves past the current copy. With consume=true the copy leaves its
// source group (the caller must addPending its destination); otherwise it is
// kept in place.
func (w *aggWalker) advance(consume bool) {
	c := w.cur[0]
	if !consume {
		w.kept[c.src] = append(w.kept[c.src], c.pos)
	}
	g := &w.st.groups[w.gids[c.src]]
	c.pos++
	if c.pos >= g.spans[c.span].hi {
		c.span++
		if int(c.span) >= len(g.spans) {
			heap.Pop(w)
			return
		}
		c.pos = g.spans[c.span].lo
	}
	c.flow = w.st.ci.members[c.pos]
	w.cur[0] = c
	heap.Fix(w, 0)
}

// finish rebuilds every source group from its kept prefix plus the unvisited
// remainder (cursor position onward), updates counts, and flushes pending
// moves. Safe to call with cursors mid-span (early stop).
func (w *aggWalker) finish() {
	// Remainders of still-live cursors.
	rem := make([][]span, len(w.gids))
	for i := range w.cur {
		c := &w.cur[i]
		g := &w.st.groups[w.gids[c.src]]
		tail := g.spans[c.span:]
		r := make([]span, len(tail))
		copy(r, tail)
		r[0].lo = c.pos
		rem[c.src] = r
	}
	for src, gid := range w.gids {
		g := &w.st.groups[gid]
		spans := mergeSpans(spansFromPositions(w.kept[src]), rem[src])
		g.spans = spans
		var n int32
		for _, s := range spans {
			n += s.hi - s.lo
		}
		g.count = n
	}
	w.st.flushPending()
	w.cur, w.kept, w.gids = w.cur[:0], w.kept[:0], w.gids[:0]
}
