package core

import (
	"fmt"
	"slices"
)

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

// referenceClassIndex is the grouping classIndexOf used before it refined:
// sort every flow ID by (signature, flow ID) and cut runs of equal
// signatures. It is the oracle refineClasses must match up to the numbering
// of the classes. It returns nil when some flow has more than maxClassPairs
// pairs.
func referenceClassIndex(p *Problem) *classIndex {
	L := p.NumFlows
	order := make([]int32, L)
	for l := range order {
		if len(p.PairsOfFlow(l)) > maxClassPairs {
			return nil
		}
		order[l] = int32(l)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := p.compareSignatures(a, b); c != 0 {
			return c
		}
		return int(a - b)
	})

	ci := &classIndex{
		classOf:   make([]int32, L),
		members:   order,
		memberOff: []int32{0},
		tmplOff:   []int32{0},
	}
	for idx := 0; idx < L; {
		run := idx + 1
		for run < L && p.compareSignatures(order[run], order[idx]) == 0 {
			run++
		}
		c := int32(ci.numClasses)
		for _, l := range order[idx:run] {
			ci.classOf[l] = c
		}
		for _, k := range p.PairsOfFlow(int(order[idx])) {
			ci.tmplSwitch = append(ci.tmplSwitch, int32(p.Pairs[k].Switch))
			ci.tmplPBar = append(ci.tmplPBar, int32(p.Pairs[k].PBar))
		}
		ci.memberOff = append(ci.memberOff, int32(run))
		ci.tmplOff = append(ci.tmplOff, int32(len(ci.tmplSwitch)))
		ci.numClasses++
		idx = run
	}
	return ci
}

// classIndexVsReference builds p's class index afresh and checks it against
// the sort-based reference up to class renumbering: the same partition of the
// flows, every class's template equal to each member's literal (switch, p̄)
// sequence, members ascending within a class, memberOff and tmplOff
// consistent. A problem the reference cannot index must have no index.
func classIndexVsReference(p *Problem) error {
	p.classes = nil
	got, want := p.classIndexOf(), referenceClassIndex(p)
	if want == nil || got == nil {
		if want != nil || got != nil {
			return fmt.Errorf("index usable: got %v, reference %v", got != nil, want != nil)
		}
		return nil
	}
	nc, L := got.numClasses, p.NumFlows
	if nc != want.numClasses {
		return fmt.Errorf("%d classes, reference has %d", nc, want.numClasses)
	}
	if len(got.classOf) != L || len(got.members) != L || len(got.memberOff) != nc+1 || len(got.tmplOff) != nc+1 {
		return fmt.Errorf("lengths: classOf %d members %d (L=%d), memberOff %d tmplOff %d (classes %d)",
			len(got.classOf), len(got.members), L, len(got.memberOff), len(got.tmplOff), nc)
	}
	if got.memberOff[0] != 0 || int(got.memberOff[nc]) != L || got.tmplOff[0] != 0 ||
		int(got.tmplOff[nc]) != len(got.tmplSwitch) || len(got.tmplSwitch) != len(got.tmplPBar) {
		return fmt.Errorf("offset ends: memberOff %d..%d (L=%d), tmplOff %d..%d (templates %d/%d)",
			got.memberOff[0], got.memberOff[nc], L, got.tmplOff[0], got.tmplOff[nc], len(got.tmplSwitch), len(got.tmplPBar))
	}
	// toWant maps each class to the reference class of its first member; the
	// map must be one to one for the partitions to be the same.
	toWant := make([]int32, nc)
	taken := make([]bool, nc)
	for c := int32(0); c < int32(nc); c++ {
		members := got.members[got.memberOff[c]:got.memberOff[c+1]]
		if len(members) == 0 {
			return fmt.Errorf("class %d is empty", c)
		}
		toWant[c] = want.classOf[members[0]]
		if taken[toWant[c]] {
			return fmt.Errorf("class %d and an earlier one both hold members of reference class %d", c, toWant[c])
		}
		taken[toWant[c]] = true
		sw, pbar := got.template(c)
		for m, l := range members {
			if m > 0 && members[m-1] >= l {
				return fmt.Errorf("class %d: members not ascending at %d: %d then %d", c, m, members[m-1], l)
			}
			if got.classOf[l] != c {
				return fmt.Errorf("flow %d listed under class %d but classOf says %d", l, c, got.classOf[l])
			}
			if want.classOf[l] != toWant[c] {
				return fmt.Errorf("flows %d and %d share class %d but not a reference class", members[0], l, c)
			}
			ks := p.PairsOfFlow(int(l))
			if len(ks) != len(sw) {
				return fmt.Errorf("class %d: template has %d pairs, member %d has %d", c, len(sw), l, len(ks))
			}
			for t, k := range ks {
				if int(sw[t]) != p.Pairs[k].Switch || int(pbar[t]) != p.Pairs[k].PBar {
					return fmt.Errorf("class %d bit %d: template (%d, %d), member %d has (%d, %d)",
						c, t, sw[t], pbar[t], l, p.Pairs[k].Switch, p.Pairs[k].PBar)
				}
			}
		}
	}
	return nil
}
