package core

import (
	"cmp"
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
// this one routine, lazily, on its own flows.
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
//
// Building the index is linear in the pairs: one FNV fold per flow, one
// hash-table probe per flow (groupBySignature), and a comparison sort over
// the classes only. Its throwaway arrays come from scratchPool; what the
// classIndex retains is freshly allocated.
func (p *Problem) classIndexOf() *classIndex {
	if p.classes != nil {
		if p.classes.numClasses < 0 {
			return nil
		}
		return p.classes
	}
	sc := scratchPool.Get().(*solverScratch)
	defer scratchPool.Put(sc)
	hash := growSlice(&sc.sigHash, p.NumFlows)
	if !p.foldSignatures(hash) {
		p.classes = classIndexUnusable
		return nil
	}
	p.classes = groupBySignature(p, hash, sc)
	return p.classes
}

// foldSignatures sets hash[l] to the FNV fold of flow l's signature. It stops
// and reports false at a flow with more than maxClassPairs pairs.
func (p *Problem) foldSignatures(hash []uint64) bool {
	for l := range hash {
		ks := p.PairsOfFlow(l)
		if len(ks) > maxClassPairs {
			return false
		}
		h := sigHashSeed
		for _, k := range ks {
			h = sigHashFold(h, p.Pairs[k].Switch, p.Pairs[k].PBar)
		}
		hash[l] = h
	}
	return true
}

// minClassTable is groupBySignature's initial table size (a power of two);
// the table doubles whenever the classes fill half of it.
const minClassTable = 1 << 10

// groupBySignature partitions p's flows into classes of equal signature,
// given hash[l] = some function of flow l's signature (classIndexOf passes
// the FNV fold; any function of the signature, even a constant, yields the
// same partition, only slower). Classes come out ordered by (hash,
// signature) and members by ascending flow ID.
//
// Flows are grouped through an open-addressing table keyed on the hash whose
// slots name provisional classes in first-seen order. A hash match is
// confirmed by comparing the flow's (switch, p̄) sequence against the class
// representative's, so collisions cost a probe and never merge two classes.
// Only the class representatives are then sorted — 10³–10⁴ of them where the
// flows number 10⁵–10⁶ — and one counting pass in ascending flow order fills
// members and renumbers classOf.
func groupBySignature(p *Problem, hash []uint64, sc *solverScratch) *classIndex {
	L := p.NumFlows
	ci := &classIndex{classOf: make([]int32, L), members: make([]int32, L)}

	// rep[c] is provisional class c's first (lowest-ID) member, count[c] its
	// size; a table slot holds c+1, 0 meaning empty.
	rep, count := sc.classRep[:0], sc.classCount[:0]
	table := growSlice(&sc.classTable, minClassTable)
	clear(table)
	shift := 64 - bits.TrailingZeros(uint(len(table)))
	for l := 0; l < L; l++ {
		h := hash[l]
		slot := tableSlot(h, shift)
		c := table[slot] - 1
		for c >= 0 && (hash[rep[c]] != h || p.compareSignatures(rep[c], int32(l)) != 0) {
			slot = (slot + 1) & (len(table) - 1)
			c = table[slot] - 1
		}
		if c < 0 {
			c = int32(len(rep))
			rep, count = append(rep, int32(l)), append(count, 0)
			table[slot] = c + 1
			if 2*len(rep) > len(table) {
				table = growSlice(&sc.classTable, 2*len(table))
				clear(table)
				shift--
				for rc, r := range rep {
					slot := tableSlot(hash[r], shift)
					for table[slot] != 0 {
						slot = (slot + 1) & (len(table) - 1)
					}
					table[slot] = int32(rc) + 1
				}
			}
		}
		ci.classOf[l] = c
		count[c]++
	}
	nc := len(rep)
	ci.numClasses = nc

	// Final class order: representatives by (hash, signature). classOf still
	// holds provisional IDs, which is how a sorted representative finds its
	// count; rank maps provisional to final.
	p.sortBySignature(rep, hash)
	rank := growSlice(&sc.classRank, nc)
	ci.memberOff = make([]int32, nc+1)
	ci.tmplOff = make([]int32, nc+1)
	for c, r := range rep {
		ci.tmplOff[c+1] = ci.tmplOff[c] + int32(len(p.PairsOfFlow(int(r))))
	}
	tmpl := make([]int32, 2*ci.tmplOff[nc])
	ci.tmplSwitch, ci.tmplPBar = tmpl[:ci.tmplOff[nc]:ci.tmplOff[nc]], tmpl[ci.tmplOff[nc]:]
	for c, r := range rep {
		prov := ci.classOf[r]
		rank[prov] = int32(c)
		ci.memberOff[c+1] = ci.memberOff[c] + count[prov]
		count[prov] = ci.memberOff[c] // from here on the class's fill cursor
		for t, k := range p.PairsOfFlow(int(r)) {
			ci.tmplSwitch[int(ci.tmplOff[c])+t] = int32(p.Pairs[k].Switch)
			ci.tmplPBar[int(ci.tmplOff[c])+t] = int32(p.Pairs[k].PBar)
		}
	}
	for l := range ci.classOf {
		prov := ci.classOf[l]
		ci.members[count[prov]] = int32(l)
		count[prov]++
		ci.classOf[l] = rank[prov]
	}
	sc.classRep, sc.classCount = rep, count
	return ci
}

// tableSlot is Fibonacci hashing: the top bits of h times 2⁶⁴/φ, so the slot
// does not hinge on the low bits FNV mixes least.
func tableSlot(h uint64, shift int) int {
	return int((h * 0x9E3779B97F4A7C15) >> shift)
}

// compareSignatures orders flows a and b by signature: length first, then
// pairwise (switch, p̄) in stored order. Zero means the same class.
func (p *Problem) compareSignatures(a, b int32) int {
	ka, kb := p.PairsOfFlow(int(a)), p.PairsOfFlow(int(b))
	if len(ka) != len(kb) {
		return len(ka) - len(kb)
	}
	for t := range ka {
		pa, pb := &p.Pairs[ka[t]], &p.Pairs[kb[t]]
		if pa.Switch != pb.Switch {
			return pa.Switch - pb.Switch
		}
		if pa.PBar != pb.PBar {
			return pa.PBar - pb.PBar
		}
	}
	return 0
}

// sigHashSeed and sigHashFold are the FNV-1a fold of a signature's (switch,
// p̄) sequence.
const sigHashSeed = uint64(1469598103934665603)

func sigHashFold(h uint64, sw, pbar int) uint64 {
	h = (h ^ uint64(sw)) * 1099511628211
	return (h ^ uint64(pbar)) * 1099511628211
}

// sortBySignature orders flow IDs by (signature hash, signature, ID). The
// hash front-loads almost every comparison into one integer compare;
// compareSignatures, the full lexicographic compare, only breaks the rare
// collisions, keeping the grouping exact.
func (p *Problem) sortBySignature(order []int32, hash []uint64) {
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(hash[a], hash[b]); c != 0 {
			return c
		}
		if c := p.compareSignatures(a, b); c != 0 {
			return c
		}
		return int(a - b)
	})
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
