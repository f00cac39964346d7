package core

import "math/bits"

// classIndex partitions a finalized Problem's flows into equivalence classes:
// two flows are equivalent when their eligible-pair signatures — the sequence
// of (switch, p̄) in switch-ascending order — are identical. Equivalent flows
// are interchangeable for PM: every decision the heuristic takes about a flow
// reads only its signature and its per-flow recovery state, never its
// identity, except through iteration order. The aggregated PM path
// (pm_agg.go) therefore plans over classes and only falls back to individual
// copies where iteration order becomes observable (a capacity limit cutting a
// class mid-way), which is what collapses ~10⁶ all-pairs flows to the
// ~10³–10⁴ distinct signatures a carrier-scale failure case actually has.
//
// Every problem — a compiled case, a region slice, a residual — is indexed by
// one routine (refineClasses), lazily, on its own flows.
//
// Bit t of a class refers to template pair t; for member flow l the concrete
// pair index is flowPairs[flowPairOff[l]+t] (a flow's pairs are stored
// switch-ascending, matching the template order).
type classIndex struct {
	numClasses int
	// classOf[l] is flow l's class.
	classOf []int32
	// members lists flow indices grouped by class, ascending flow ID within
	// each class: members[memberOff[c]:memberOff[c+1]].
	members   []int32
	memberOff []int32
	// tmplSwitch/tmplPBar hold each class's pair template, flat:
	// tmplOff[c]:tmplOff[c+1]. Template switches are strictly ascending
	// (a simple path meets each offline switch at most once).
	tmplSwitch []int32
	tmplPBar   []int32
	tmplOff    []int32
}

// maxClassPairs bounds per-flow pair counts for aggregation: class state is a
// uint64 bitset over the template pairs.
const maxClassPairs = 64

// classIndexUnusable is the cached sentinel for problems that cannot be
// aggregated.
var classIndexUnusable = &classIndex{numClasses: -1}

// classIndexOf returns the problem's class index, computing and caching it on
// first use, or nil when the problem cannot be aggregated (some flow has more
// than maxClassPairs pairs). The first call is not safe for concurrent use;
// every current caller solves a Problem from a single goroutine at a time
// (the sweep engine and the hierarchical solve parallelize across Problems,
// not within one).
func (p *Problem) classIndexOf() *classIndex {
	if p.classes == nil {
		p.classes = refineClasses(p)
	}
	if p.classes.numClasses < 0 {
		return nil
	}
	return p.classes
}

// refineNode is one node of refineClasses' tree: the class of the flows that
// have met exactly the (switch, p̄) sequence spelled by the path from the root
// down to it.
type refineNode struct {
	parent, sw, pbar int32
	depth            int32 // pairs on the path, the template length
	// The node's children made at switch kidsAt: kid first, then along
	// sibling, oldest first. Children made at earlier switches are never
	// looked up again.
	kidsAt, kid, sibling int32
	count                int32 // flows ending here; later the fill cursor
	class                int32 // final class ID, for nodes where flows end
}

// refineClasses builds p's class index by partition refinement over the
// switch runs of Pairs. All flows start in one class, the empty signature.
// Each run, read once in order, moves every flow it names from its class to
// that class's child for (this switch, the pair's p̄), made on first use. A
// flow's class is thereby a function of the (switch, p̄) sequence it has met
// and of nothing else, so two flows share a class at the end iff their
// signatures are equal: the grouping is exact with no signature ever hashed or
// compared. The classes are the nodes flows end in, numbered in order of
// creation; a class's template is the path down to its node.
//
// The cost is one sequential pass over Pairs with a random access into
// classOf and the (few thousand) nodes per pair, then two passes over the
// flows. The nodes are pooled scratch; what the classIndex retains is freshly
// allocated. It returns classIndexUnusable at the first flow to exceed
// maxClassPairs pairs.
func refineClasses(p *Problem) *classIndex {
	L := p.NumFlows
	ci := &classIndex{classOf: make([]int32, L), members: make([]int32, L)}
	classOf := ci.classOf
	sc := scratchPool.Get().(*solverScratch)
	nodes := append(sc.refine[:0], refineNode{parent: -1, kidsAt: -1})
	defer func() {
		sc.refine = nodes
		scratchPool.Put(sc)
	}()
	for i := int32(0); i < int32(p.NumSwitches); i++ {
		for _, pr := range p.Pairs[p.swPairOff[i]:p.swPairOff[i+1]] {
			from := classOf[pr.Flow]
			to, last := int32(-1), int32(-1)
			if nodes[from].kidsAt == i {
				for to = nodes[from].kid; to >= 0 && nodes[to].pbar != int32(pr.PBar); to = nodes[to].sibling {
					last = to
				}
			}
			if to < 0 {
				if nodes[from].depth == maxClassPairs {
					return classIndexUnusable
				}
				to = int32(len(nodes))
				nodes = append(nodes, refineNode{
					parent: from, sw: i, pbar: int32(pr.PBar), depth: nodes[from].depth + 1,
					kidsAt: -1, sibling: -1,
				})
				if last >= 0 {
					nodes[last].sibling = to
				} else {
					nodes[from].kidsAt, nodes[from].kid = i, to
				}
			}
			classOf[pr.Flow] = to
		}
	}

	// Number the nodes flows ended in, lay out their members and templates,
	// and spell each template bottom-up along the parent chain.
	for _, n := range classOf {
		nodes[n].count++
	}
	var tmplLen int32
	for n := range nodes {
		if nodes[n].count > 0 {
			nodes[n].class = int32(ci.numClasses)
			ci.numClasses++
			tmplLen += nodes[n].depth
		}
	}
	ci.memberOff = make([]int32, ci.numClasses+1)
	ci.tmplOff = make([]int32, ci.numClasses+1)
	tmpl := make([]int32, 2*tmplLen)
	ci.tmplSwitch, ci.tmplPBar = tmpl[:tmplLen:tmplLen], tmpl[tmplLen:]
	for n := range nodes {
		nd := &nodes[n]
		if nd.count == 0 {
			continue
		}
		c := nd.class
		ci.memberOff[c+1] = ci.memberOff[c] + nd.count
		ci.tmplOff[c+1] = ci.tmplOff[c] + nd.depth
		nd.count = ci.memberOff[c]
		for t, a := ci.tmplOff[c+1]-1, nd; t >= ci.tmplOff[c]; t, a = t-1, &nodes[a.parent] {
			ci.tmplSwitch[t], ci.tmplPBar[t] = a.sw, a.pbar
		}
	}
	// Ascending flow order keeps every class's members ascending.
	for l, n := range classOf {
		nd := &nodes[n]
		ci.members[nd.count] = int32(l)
		nd.count++
		classOf[l] = nd.class
	}
	return ci
}

// ClassCount returns the number of flow equivalence classes of a finalized
// problem, or -1 when the problem cannot be class-aggregated (some flow has
// more than 64 eligible pairs). It is a diagnostic for scale reporting —
// compression factor is NumFlows / ClassCount — and shares the solvers'
// cached index.
func (p *Problem) ClassCount() int {
	ci := p.classIndexOf()
	if ci == nil {
		return -1
	}
	return ci.numClasses
}

// numPairs returns the template length of class c.
func (ci *classIndex) numPairs(c int32) int {
	return int(ci.tmplOff[c+1] - ci.tmplOff[c])
}

// template returns class c's (switch, p̄) template slices.
func (ci *classIndex) template(c int32) (sw, pbar []int32) {
	lo, hi := ci.tmplOff[c], ci.tmplOff[c+1]
	return ci.tmplSwitch[lo:hi], ci.tmplPBar[lo:hi]
}

// pairOf returns the concrete pair index of template bit t for member flow l.
func (p *Problem) pairOf(l int32, t int32) int {
	return p.flowPairs[p.flowPairOff[l]+int32(t)]
}

// maskProg returns the programmability a member of class c holds under the
// given activation mask: Σ p̄ over set template bits.
func (ci *classIndex) maskProg(c int32, mask uint64) int32 {
	_, pbar := ci.template(c)
	var h int32
	for m := mask; m != 0; m &= m - 1 {
		h += pbar[bits.TrailingZeros64(m)]
	}
	return h
}
