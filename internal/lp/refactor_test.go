package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refactorizeReference is the dense-scan refactorization the pattern-driven
// etaFactor.refactorize replaced, kept as its oracle: for every basis column
// it zeroes a dense vector, applies every eta built so far, scans all m rows
// for the pivot and all m again to emit the eta. The two must agree bit for
// bit — same etas, same s.basis permutation, same singular-basis error.
func refactorizeReference(s *simplex) ([]eta, error) {
	m := s.m
	var etas []eta
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := s.basis[order[a]], s.basis[order[b]]
		na := s.colPtr[va+1] - s.colPtr[va]
		nb := s.colPtr[vb+1] - s.colPtr[vb]
		if na != nb {
			return na < nb
		}
		return order[a] < order[b]
	})
	used := make([]bool, m)
	newBasis := make([]int, m)
	work := make([]float64, m)
	for _, pos := range order {
		v := s.basis[pos]
		for i := range work {
			work[i] = 0
		}
		rows, vals := s.col(v)
		for k, r := range rows {
			work[r] = vals[k]
		}
		for idx := range etas {
			et := &etas[idx]
			xp := work[et.p]
			if xp == 0 {
				continue
			}
			work[et.p] = et.diag * xp
			for k, r := range et.rows {
				work[r] += et.vals[k] * xp
			}
		}
		p := -1
		best := 0.0
		for r := 0; r < m; r++ {
			if used[r] {
				continue
			}
			if a := math.Abs(work[r]); a > best {
				best, p = a, r
			}
		}
		if p < 0 || best < 1e-11 {
			return nil, fmt.Errorf("%w: singular basis at position %d", errNumerical, pos)
		}
		inv := 1 / work[p]
		et := eta{p: int32(p), diag: inv}
		for r, a := range work {
			if r == p || a == 0 {
				continue
			}
			val := -a * inv
			if math.Abs(val) < dropTol {
				continue
			}
			et.rows = append(et.rows, int32(r))
			et.vals = append(et.vals, val)
		}
		etas = append(etas, et)
		used[p] = true
		newBasis[p] = v
	}
	copy(s.basis, newBasis)
	return etas, nil
}

// refactorizeBothWays refactorizes s's basis with the reference and with
// etaFactor.refactorize, each on its own copy of the basis, and describes the
// first difference; singular reports that both refused the basis, with the
// same error. It leaves s untouched.
func refactorizeBothWays(s *simplex) (singular bool, diff string) {
	ref, got := *s, *s
	ref.basis = append([]int(nil), s.basis...)
	got.basis = append([]int(nil), s.basis...)
	want, wantErr := refactorizeReference(&ref)
	var e etaFactor
	gotErr := e.refactorize(&got)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			return false, fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return true, ""
	}
	for i := range ref.basis {
		if ref.basis[i] != got.basis[i] {
			return false, fmt.Sprintf("basis position %d holds %d, reference %d", i, got.basis[i], ref.basis[i])
		}
	}
	if len(e.etas) != len(want) {
		return false, fmt.Sprintf("%d etas, reference %d", len(e.etas), len(want))
	}
	for i := range want {
		g, w := &e.etas[i], &want[i]
		if g.p != w.p || math.Float64bits(g.diag) != math.Float64bits(w.diag) || len(g.rows) != len(w.rows) || len(g.vals) != len(w.vals) {
			return false, fmt.Sprintf("eta %d: p %d diag %x with %d rows, reference p %d diag %x with %d rows",
				i, g.p, math.Float64bits(g.diag), len(g.rows), w.p, math.Float64bits(w.diag), len(w.rows))
		}
		for k := range w.rows {
			if g.rows[k] != w.rows[k] || math.Float64bits(g.vals[k]) != math.Float64bits(w.vals[k]) {
				return false, fmt.Sprintf("eta %d entry %d: row %d val %x, reference row %d val %x",
					i, k, g.rows[k], math.Float64bits(g.vals[k]), w.rows[k], math.Float64bits(w.vals[k]))
			}
		}
	}
	return false, ""
}

// CheckRefactorizations makes every eta refactorization of every simplex run
// until the test ends also run refactorizeBothWays, failing t on a
// difference. It returns the counts of bases compared and of those both
// sides called singular.
func CheckRefactorizations(t testing.TB) (compared, singular *int) {
	compared, singular = new(int), new(int)
	testHookRefactorize = func(s *simplex) {
		if _, ok := s.fact.(*etaFactor); !ok {
			return
		}
		*compared++
		sing, diff := refactorizeBothWays(s)
		if sing {
			*singular++
		}
		if diff != "" {
			t.Errorf("refactorization %d (m=%d): %s", *compared, s.m, diff)
		}
	}
	t.Cleanup(func() { testHookRefactorize = nil })
	return compared, singular
}

// sparseBasisFixture builds a sparse model's simplex: nr mixed LE/GE/EQ rows
// of two to five entries, variable r < nr a single-entry column on row r, and
// three special columns at the end — one with no entry and two that are
// multiples of each other.
func sparseBasisFixture(rng *rand.Rand) (s *simplex, zeroCol int, pair [2]int) {
	nr := 12 + rng.Intn(70)
	nv := 2*nr + rng.Intn(nr)
	m := NewModel(Maximize)
	for v := 0; v < nv+3; v++ {
		m.AddVar(0, float64(1+rng.Intn(9)), 0, "")
	}
	zeroCol, pair = nv, [2]int{nv + 1, nv + 2}
	coeff := func() float64 {
		c := float64(1+rng.Intn(9)) / float64(1+rng.Intn(4))
		if rng.Intn(2) == 0 {
			c = -c
		}
		return c
	}
	pairRows := map[int]float64{rng.Intn(nr): coeff(), rng.Intn(nr): coeff(), rng.Intn(nr): coeff()}
	for r := 0; r < nr; r++ {
		terms := []Term{{r, coeff()}}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			// A repeated variable is merged, now and then into an explicit 0.
			terms = append(terms, Term{nr + rng.Intn(nv-nr), coeff()})
		}
		if c, ok := pairRows[r]; ok {
			terms = append(terms, Term{pair[0], c}, Term{pair[1], 3 * c})
		}
		if err := m.AddRow([]Op{LE, GE, EQ}[rng.Intn(3)], 1, terms...); err != nil {
			panic(err)
		}
	}
	return newSimplex(m, Options{Factorization: FactorSparse}), zeroCol, pair
}

// TestRefactorizeMatchesReference compares the pattern-driven
// refactorization with the dense-scan reference on random sparse bases. A
// basis starts as one single-entry column per row (the row's slack or its
// own structural column) and takes a random number of simplex-style column
// exchanges, each on a non-zero pivot so it stays regular. Every fourth
// basis is then spoiled: two single-entry columns on one row, the empty
// column, or the proportional pair — both sides must refuse it alike.
func TestRefactorizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	regular, singular, exchanged := 0, 0, 0
	for trial := 0; trial < 320; trial++ {
		s, zeroCol, pair := sparseBasisFixture(rng)
		nr := s.m
		s.basis = make([]int, nr)
		basic := make([]bool, s.numCols())
		for i := range s.basis {
			s.basis[i] = i
			if sv := s.slackVar[i]; sv >= 0 && rng.Intn(3) > 0 {
				s.basis[i] = int(sv)
			}
			basic[s.basis[i]] = true
		}
		var e etaFactor
		alpha := make([]float64, nr)
		for k := rng.Intn(nr); k > 0; k-- {
			v := nr + rng.Intn(zeroCol-nr)
			if basic[v] {
				continue
			}
			if err := e.refactorize(s); err != nil {
				t.Fatalf("trial %d: a basis built by non-zero pivots is singular: %v", trial, err)
			}
			e.ftran(s, v, alpha)
			// Leave on a random row among those with a usable pivot.
			for r, left := rng.Intn(nr), nr; left > 0; r, left = (r+1)%nr, left-1 {
				if math.Abs(alpha[r]) > 1e-3 {
					basic[s.basis[r]], basic[v] = false, true
					s.basis[r] = v
					exchanged++
					break
				}
			}
		}
		spoiled := trial%4 == 3
		if spoiled {
			r := rng.Intn(nr)
			switch (trial / 4) % 3 {
			case 0: // a row's slack and its own column, both single-entry, together
				for i, v := range s.basis {
					if sv := int(s.slackVar[i]); v == sv && !basic[i] {
						s.basis[(i+1)%nr] = i
						break
					} else if v == i && sv >= 0 && !basic[sv] {
						s.basis[(i+1)%nr] = sv
						break
					}
				}
			case 1:
				s.basis[r] = zeroCol
			case 2:
				s.basis[r], s.basis[(r+1)%nr] = pair[0], pair[1]
			}
		}
		sing, diff := refactorizeBothWays(s)
		if diff != "" {
			t.Fatalf("trial %d (m=%d): %s", trial, nr, diff)
		}
		if sing != spoiled {
			t.Fatalf("trial %d: spoiled %v but singular %v", trial, spoiled, sing)
		}
		if sing {
			singular++
		} else {
			regular++
		}
	}
	t.Logf("%d regular and %d singular bases agree with the reference (%d column exchanges)", regular, singular, exchanged)
	if regular < 200 || exchanged < 10*(regular+singular) {
		t.Fatalf("%d regular bases after %d exchanges: want at least 200, 10 exchanges a basis", regular, exchanged)
	}
}
