package core

import (
	"math/bits"
	"slices"
)

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
// pair is l's t-th pair in the order of Pairs (switch-major, so
// switch-ascending, matching the template order).
type classIndex struct {
	numClasses int
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

// maxClassPBar bounds p̄ for aggregation: refineClasses finds a class's child
// through a row of p̄+1 slots per node. ATT and scale-syn reach 12.
const maxClassPBar = 64

// classIndexUnusable is the cached sentinel for problems that cannot be
// aggregated.
var classIndexUnusable = &classIndex{numClasses: -1}

// classIndexOf returns the problem's class index, computing and caching it on
// first use, or nil when the problem cannot be aggregated (some flow has more
// than maxClassPairs pairs, or some p̄ exceeds maxClassPBar). The first call is
// not safe for concurrent use, and neither is PairsOfFlow's, which caches the
// flow → pairs index the same way; every current caller solves a Problem from
// a single goroutine at a time (the sweep engine and the hierarchical solve
// parallelize across Problems, not within one).
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
	// kidsAt is the switch the node's row of the child table was last reset
	// at; children made at earlier switches are never looked up again.
	kidsAt int32
	count  int32 // flows ending here; later the fill cursor
	class  int32 // final class ID, for nodes where flows end
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
// A node's children at the current switch are found in O(1): node n's row of
// the child table, kids[n*w:(n+1)*w] with w = p̄_max+1, is indexed by p̄ and
// reset the first time n gets a child at a switch. The cost is one
// sequential pass over Pairs with a random access into classOf (each flow's
// node so far), the (few thousand) nodes and their rows per pair, then two
// passes over the flows. The nodes and rows are pooled scratch; classOf, 4 B
// per flow, is allocated per call and dropped with it (pooling it would pin
// the largest case's array); what the classIndex retains is freshly
// allocated. It returns classIndexUnusable when p̄_max exceeds
// maxClassPBar or at the first flow to exceed maxClassPairs pairs.
func refineClasses(p *Problem) *classIndex {
	if p.maxPBar > maxClassPBar {
		return classIndexUnusable
	}
	L, w := p.NumFlows, int32(p.maxPBar+1)
	ci := &classIndex{members: make([]int32, L)}
	classOf := make([]int32, L)
	sc := scratchPool.Get().(*solverScratch)
	nodes := append(sc.refine[:0], refineNode{parent: -1, kidsAt: -1})
	kids := growSlice(&sc.refineKids, int(w))
	defer func() {
		sc.refine, sc.refineKids = nodes, kids
		scratchPool.Put(sc)
	}()
	for i := int32(0); i < int32(p.NumSwitches); i++ {
		for _, pr := range p.Pairs[p.swPairOff[i]:p.swPairOff[i+1]] {
			from := classOf[pr.Flow]
			row := kids[from*w : (from+1)*w]
			if nodes[from].kidsAt != i {
				nodes[from].kidsAt = i
				for x := range row {
					row[x] = -1
				}
			}
			to := row[pr.PBar]
			if to < 0 {
				if nodes[from].depth == maxClassPairs {
					return classIndexUnusable
				}
				to = int32(len(nodes))
				nodes = append(nodes, refineNode{
					parent: from, sw: i, pbar: int32(pr.PBar), depth: nodes[from].depth + 1, kidsAt: -1,
				})
				row[pr.PBar] = to // before the row's backing array may move
				kids = slices.Grow(kids, int(w))[:len(kids)+int(w)]
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
	}
	return ci
}

// ClassCount returns the number of flow equivalence classes of a finalized
// problem, or -1 when the problem cannot be class-aggregated (some flow has
// more than 64 eligible pairs, or some p̄ is above 64). It is a diagnostic
// for scale reporting — compression factor is NumFlows / ClassCount — and
// shares the solvers' cached index.
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
