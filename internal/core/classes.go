package core

import (
	"cmp"
	"math/bits"
	"slices"
)

// classIndex partitions a finalized Problem's flows into equivalence classes:
// two flows are equivalent when their eligible-pair signatures — the sequence
// of (switch, p̄) in switch-ascending order — are identical. Equivalent flows
// are interchangeable for PM and PG: every decision the heuristics take about
// a flow reads only its signature and its per-flow recovery state, never its
// identity, except through iteration order. The aggregated solver paths
// (pm_agg.go, pg_agg.go) therefore plan over classes and only fall back to
// individual copies where iteration order becomes observable (a capacity
// limit cutting a class mid-way), which is what collapses ~10⁶ all-pairs
// flows to the ~10³–10⁴ distinct signatures a carrier-scale failure case
// actually has.
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
// (the sweep engine parallelizes across Problems, not within one).
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
	sortBySignature(rep, hash, p.compareSignatures)
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
// p̄) sequence; classIndexOf and regroupClasses must order by the same key.
const sigHashSeed = uint64(1469598103934665603)

func sigHashFold(h uint64, sw, pbar int) uint64 {
	h = (h ^ uint64(sw)) * 1099511628211
	return (h ^ uint64(pbar)) * 1099511628211
}

// sortBySignature orders IDs by (signature hash, signature, ID). The hash
// front-loads almost every comparison into one integer compare; sigCmp, the
// full lexicographic compare, only breaks the rare collisions, keeping the
// grouping exact.
func sortBySignature(order []int32, hash []uint64, sigCmp func(a, b int32) int) {
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(hash[a], hash[b]); c != 0 {
			return c
		}
		if c := sigCmp(a, b); c != 0 {
			return c
		}
		return int(a - b)
	})
}

// DeriveResidualClasses fills r's class index from its parent's, where r is
// the residual of parent that excludes every pair at the switches marked in
// excluded (scenario.Instance.Residual). Switch and flow numbering are the
// parent's; flows left without a pair stay flows and share the empty-signature
// class. Deriving (regroupClasses) only regroups the parent's classes
// (thousands) instead of re-hashing every flow (millions), which is what puts
// a residual re-plan back on the zero-ish-cost path the parent solve already
// paid for.
//
// The derived index is identical, field for field, to what classIndexOf
// would compute from scratch on r (enforced by TestDeriveResidualClasses).
// The call is a no-op — r computes lazily as before — when the parent's index
// is absent or unusable, or r already has one.
func (r *Problem) DeriveResidualClasses(parent *Problem, excluded []bool) {
	pc := parent.classes
	if pc == nil || pc.numClasses <= 0 || r.classes != nil || r.NumFlows != parent.NumFlows {
		return
	}
	swMap := make([]int, len(excluded))
	for s, ex := range excluded {
		swMap[s] = s
		if ex {
			swMap[s] = -1
		}
	}
	r.classes = regroupClasses(pc, r.NumFlows, swMap, nil)
}

// deriveSliceClasses fills sub's class index from its parent's, where sub is
// the slow-path Slice of p: swLocal maps parent switch → local switch (-1 =
// dropped) and flowLocal maps parent flow → local flow (-1 = dropped). A flow
// joins a slice only through a kept pair, so a parent class whose template
// loses every pair has every member dropped and disappears; a class with any
// kept pair keeps all its members (equal signatures). This is what keeps a
// multi-region hierarchical solve from paying a fresh classIndexOf per region
// slice.
//
// Local switch and flow numbering are both ascending in parent order, so the
// derived index is identical, field for field, to a scratch computation on
// sub (enforced by TestDeriveSliceClasses). The call is a no-op when the
// parent's index is absent or unusable, or sub already has one.
func (sub *Problem) deriveSliceClasses(p *Problem, swLocal, flowLocal []int) {
	pc := p.classes
	if pc == nil || pc.numClasses <= 0 || sub.classes != nil {
		return
	}
	// The slice gathers pairs switch-major, so its per-flow signatures come
	// out switch-ascending no matter how the parent ordered its Pairs. The
	// parent's templates mirror the parent's order (Finalize never sorts);
	// deriving is only faithful when the two orders agree, i.e. every parent
	// template is switch-nondecreasing (ties keep global pair order in both).
	// Scenario-built problems are switch-major by construction; on a hand-built
	// parent that isn't, bail and let the sub index itself lazily.
	for c := 0; c < pc.numClasses; c++ {
		for t := pc.tmplOff[c] + 1; t < pc.tmplOff[c+1]; t++ {
			if pc.tmplSwitch[t] < pc.tmplSwitch[t-1] {
				return
			}
		}
	}
	sub.classes = regroupClasses(pc, sub.NumFlows, swLocal, flowLocal)
}

// regroupClasses derives the class index of a problem cut out of the one pc
// indexes: swMap[s] is the derived problem's ID of parent switch s, or -1 when
// its pairs are gone; flowMap likewise for flows, nil meaning every flow is
// kept under its own ID. Both maps must be ascending on what they keep.
// Members of one parent class share a signature, so they share the filtered
// signature too: the routine filters each parent template through swMap,
// sorts the parent classes by classIndexOf's own (hash, signature) key over
// the mapped switch IDs, cuts runs of equal filtered signatures, and merges
// their member lists — so groups and members come out in the order a scratch
// classIndexOf on the derived problem produces.
func regroupClasses(pc *classIndex, numFlows int, swMap, flowMap []int) *classIndex {
	nc := pc.numClasses

	// Filtered-signature hash and length per parent class.
	hash := make([]uint64, nc)
	flen := make([]int32, nc)
	for c := 0; c < nc; c++ {
		sw, pb := pc.template(int32(c))
		h := sigHashSeed
		n := int32(0)
		for t := range sw {
			if si := swMap[sw[t]]; si >= 0 {
				h = sigHashFold(h, si, int(pb[t]))
				n++
			}
		}
		hash[c] = h
		flen[c] = n
	}
	// sigCmp compares two parent classes' filtered signatures exactly the way
	// classIndexOf's sigCmp compares flows: length first, then pairwise.
	sigCmp := func(a, b int32) int {
		if flen[a] != flen[b] {
			return int(flen[a] - flen[b])
		}
		if flen[a] == 0 {
			return 0
		}
		swA, pbA := pc.template(a)
		swB, pbB := pc.template(b)
		tb := 0
		for ta := range swA {
			if swMap[swA[ta]] < 0 {
				continue
			}
			for swMap[swB[tb]] < 0 {
				tb++
			}
			if d := swMap[swA[ta]] - swMap[swB[tb]]; d != 0 {
				return d
			}
			if pbA[ta] != pbB[tb] {
				return int(pbA[ta] - pbB[tb])
			}
			tb++
		}
		return 0
	}

	order := make([]int32, nc)
	for c := range order {
		order[c] = int32(c)
	}
	sortBySignature(order, hash, sigCmp)

	ci := &classIndex{
		classOf:   make([]int32, numFlows),
		members:   make([]int32, 0, numFlows),
		memberOff: make([]int32, 1, nc+1),
		tmplOff:   make([]int32, 1, nc+1),
	}
	for idx := 0; idx < nc; {
		run := idx + 1
		for run < nc && hash[order[run]] == hash[order[idx]] && sigCmp(order[run], order[idx]) == 0 {
			run++
		}
		group := order[idx:run]
		idx = run
		start := len(ci.members)
		for _, pcls := range group {
			m := pc.members[pc.memberOff[pcls]:pc.memberOff[pcls+1]]
			if flowMap == nil {
				ci.members = append(ci.members, m...)
				continue
			}
			for _, l := range m {
				if fl := flowMap[l]; fl >= 0 {
					ci.members = append(ci.members, int32(fl))
				}
			}
		}
		if len(ci.members) == start {
			continue // every member dropped: no class
		}
		// Each parent class's members are ascending and stay so under an
		// ascending flowMap; a merged group needs one sort to restore the
		// global ascending order of a scratch run.
		if len(group) > 1 {
			slices.Sort(ci.members[start:])
		}
		c := int32(ci.numClasses)
		for _, l := range ci.members[start:] {
			ci.classOf[l] = c
		}
		sw, pb := pc.template(group[0])
		for t := range sw {
			if si := swMap[sw[t]]; si >= 0 {
				ci.tmplSwitch = append(ci.tmplSwitch, int32(si))
				ci.tmplPBar = append(ci.tmplPBar, pb[t])
			}
		}
		ci.memberOff = append(ci.memberOff, int32(len(ci.members)))
		ci.tmplOff = append(ci.tmplOff, int32(len(ci.tmplSwitch)))
		ci.numClasses++
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
