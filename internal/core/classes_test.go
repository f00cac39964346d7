package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// referenceClassIndex is the grouping classIndexOf used before it hashed:
// sort every flow ID by (hash, signature, flow ID) and cut runs of equal
// signatures. It is the oracle groupBySignature must match field for field.
func referenceClassIndex(p *Problem, hash []uint64) *classIndex {
	L := p.NumFlows
	order := make([]int32, L)
	for l := range order {
		order[l] = int32(l)
	}
	p.sortBySignature(order, hash)

	ci := &classIndex{
		classOf:   make([]int32, L),
		members:   order,
		memberOff: []int32{0},
		tmplOff:   []int32{0},
	}
	for idx := 0; idx < L; {
		run := idx + 1
		for run < L && hash[order[run]] == hash[order[idx]] && p.compareSignatures(order[run], order[idx]) == 0 {
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

// normalizeClassIndex maps empty-but-non-nil and nil slices to a comparable
// shape (append on an empty template leaves nil in one path, empty in the
// other).
func normalizeClassIndex(ci *classIndex) *classIndex {
	out := &classIndex{numClasses: ci.numClasses}
	out.classOf = append([]int32{}, ci.classOf...)
	out.members = append([]int32{}, ci.members...)
	out.memberOff = append([]int32{}, ci.memberOff...)
	out.tmplSwitch = append([]int32{}, ci.tmplSwitch...)
	out.tmplPBar = append([]int32{}, ci.tmplPBar...)
	out.tmplOff = append([]int32{}, ci.tmplOff...)
	return out
}

// classIndexVsReference groups p's flows both ways over the same hash slice —
// the real signature fold, or one constant so that every flow collides and
// only the exact signature compare separates classes — and reports the first
// difference.
func classIndexVsReference(p *Problem, constantHash bool) error {
	hash := make([]uint64, p.NumFlows)
	if !constantHash && !p.foldSignatures(hash) {
		return fmt.Errorf("problem not aggregable")
	}
	sc := scratchPool.Get().(*solverScratch)
	defer scratchPool.Put(sc)
	got := groupBySignature(p, hash, sc)
	want := referenceClassIndex(p, hash)
	if !reflect.DeepEqual(normalizeClassIndex(want), normalizeClassIndex(got)) {
		return fmt.Errorf("class index differs from the sort-based reference:\nwant: %+v\ngot:  %+v", want, got)
	}
	return nil
}

// TestClassIndexGrowsTable runs the oracle on a problem big and diverse
// enough (2¹⁷ flows, tens of thousands of classes, fat and singleton) that the
// grouping table doubles several times from minClassTable, rehashing the
// representatives each time.
func TestClassIndexGrowsTable(t *testing.T) {
	const (
		numFlows    = 1 << 17
		numSwitches = 48
	)
	rng := rand.New(rand.NewSource(17))
	type sigPair struct{ sw, pbar int }
	pool := make([][]sigPair, 1<<15)
	for s := range pool {
		for i := 0; i < numSwitches; i++ {
			if rng.Intn(12) == 0 {
				pool[s] = append(pool[s], sigPair{i, 2 + rng.Intn(3)})
			}
		}
	}
	p := &Problem{
		NumSwitches:    numSwitches,
		NumControllers: 1,
		NumFlows:       numFlows,
		Rest:           []int{1},
		Gamma:          make([]int, numSwitches),
		Delay:          make([][]float64, numSwitches),
	}
	for i := range p.Delay {
		p.Delay[i] = []float64{1}
	}
	for l := 0; l < numFlows; l++ {
		// Half the flows share 64 signatures, the rest spread over the pool.
		sig := pool[rng.Intn(64)]
		if l%2 == 0 {
			sig = pool[rng.Intn(len(pool))]
		}
		for _, sp := range sig {
			p.Pairs = append(p.Pairs, Pair{Switch: sp.sw, Flow: l, PBar: sp.pbar})
		}
	}
	if err := p.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := classIndexVsReference(p, false); err != nil {
		t.Fatal(err)
	}
	if nc := p.ClassCount(); 2*nc <= 8*minClassTable {
		t.Fatalf("%d classes: the table grew fewer than four times", nc)
	}
}
