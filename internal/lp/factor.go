package lp

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// factorizer is the basis-inverse representation behind the simplex: either
// a dense explicit inverse (tiny models) or a product-form eta file whose
// refactorization costs what the basis columns' non-zeros cost. Basis
// positions are identified with constraint rows; a factorizer's refactorize
// may permute s.basis to establish that identification.
type factorizer interface {
	// refactorize rebuilds the representation from s.basis. It may reorder
	// s.basis (the basis is a set; positions are representation-defined).
	// The caller recomputes xB afterwards.
	refactorize(s *simplex) error
	// ftran computes alpha = B⁻¹ A_v.
	ftran(s *simplex, v int, alpha []float64)
	// btran computes y = cb B⁻¹ (cb indexed by basis position).
	btran(s *simplex, cb, y []float64)
	// applyInv replaces x with B⁻¹ x.
	applyInv(s *simplex, x []float64)
	// update absorbs a pivot: basis position p is being replaced by the
	// variable whose pre-pivot direction is alpha (= B⁻¹ A_enter). It is
	// called before s.basis is rewritten.
	update(s *simplex, p int, alpha []float64) error
}

// --- dense explicit inverse ---

// denseFactor keeps B⁻¹ as a dense matrix, updated by Gauss-Jordan on each
// pivot and rebuilt by partial-pivoting elimination. O(m²) per pivot and
// O(m³) per refactorization — the right trade only for tiny models.
type denseFactor struct {
	binv [][]float64
}

func (d *denseFactor) refactorize(s *simplex) error {
	m := s.m
	// Build the dense basis matrix augmented with the identity.
	bmat := make([][]float64, m)
	for i := range bmat {
		bmat[i] = make([]float64, 2*m)
	}
	for pos, v := range s.basis {
		rows, vals := s.col(v)
		for k, r := range rows {
			bmat[r][pos] = vals[k]
		}
	}
	for i := 0; i < m; i++ {
		bmat[i][m+i] = 1
	}
	for c := 0; c < m; c++ {
		// Partial pivot.
		p := c
		for r := c + 1; r < m; r++ {
			if math.Abs(bmat[r][c]) > math.Abs(bmat[p][c]) {
				p = r
			}
		}
		if math.Abs(bmat[p][c]) < 1e-12 {
			return fmt.Errorf("%w: singular basis at column %d", errNumerical, c)
		}
		bmat[c], bmat[p] = bmat[p], bmat[c]
		inv := 1 / bmat[c][c]
		for j := c; j < 2*m; j++ {
			bmat[c][j] *= inv
		}
		for r := 0; r < m; r++ {
			if r == c {
				continue
			}
			f := bmat[r][c]
			if f == 0 {
				continue
			}
			for j := c; j < 2*m; j++ {
				bmat[r][j] -= f * bmat[c][j]
			}
		}
	}
	if d.binv == nil {
		d.binv = make([][]float64, m)
		for i := range d.binv {
			d.binv[i] = make([]float64, m)
		}
	}
	for i := 0; i < m; i++ {
		copy(d.binv[i], bmat[i][m:])
	}
	return nil
}

func (d *denseFactor) ftran(s *simplex, v int, alpha []float64) {
	for i := range alpha {
		alpha[i] = 0
	}
	rows, vals := s.col(v)
	for k, r := range rows {
		c := vals[k]
		row := int(r)
		for i := 0; i < s.m; i++ {
			alpha[i] += d.binv[i][row] * c
		}
	}
}

func (d *denseFactor) btran(s *simplex, cb, y []float64) {
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < s.m; i++ {
		c := cb[i]
		if c == 0 {
			continue
		}
		row := d.binv[i]
		for j := 0; j < s.m; j++ {
			y[j] += c * row[j]
		}
	}
}

func (d *denseFactor) applyInv(s *simplex, x []float64) {
	out := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		var sum float64
		row := d.binv[i]
		for j := 0; j < s.m; j++ {
			sum += row[j] * x[j]
		}
		out[i] = sum
	}
	copy(x, out)
}

func (d *denseFactor) update(s *simplex, p int, alpha []float64) error {
	// Gauss-Jordan on the entering direction: row p is scaled by 1/alpha_p,
	// every other row i is reduced by alpha_i times the new row p.
	pr := d.binv[p]
	inv := 1 / alpha[p]
	for j := 0; j < s.m; j++ {
		pr[j] *= inv
	}
	for i := 0; i < s.m; i++ {
		if i == p {
			continue
		}
		f := alpha[i]
		if f == 0 {
			continue
		}
		ri := d.binv[i]
		for j := 0; j < s.m; j++ {
			ri[j] -= f * pr[j]
		}
	}
	return nil
}

// --- product-form eta file ---

// eta is one elementary transformation: the matrix that equals the identity
// except in column p, where it holds diag on the diagonal and vals on rows.
type eta struct {
	p    int32
	diag float64
	rows []int32
	vals []float64
}

// etaFactor represents B⁻¹ as a product of elementary matrices
// E_k ··· E_1 (the product-form inverse). FTRAN applies the etas in order,
// BTRAN in reverse; each application touches only the eta's nonzeros, so the
// cost tracks the basis's fill rather than m². Refactorization rebuilds the
// product by sparse Gauss-Jordan elimination over the basis columns,
// processing sparsest columns first and permuting s.basis so that basis
// positions coincide with pivot rows; it works on each column's non-zero
// pattern and never scans all m rows for one column.
type etaFactor struct {
	etas []eta
	// Refactorization scratch, reused across calls: work is all zero and
	// mark all false between columns; nz lists the rows of the column in
	// hand that work may be non-zero on.
	work []float64
	mark []bool
	nz   []int32
}

// dropTol discards eta entries smaller than this; they cannot influence a
// pivot decision above the solver tolerances but would accumulate fill.
const dropTol = 1e-13

// singularTol is the smallest pivot a refactorization accepts.
const singularTol = 1e-11

func (e *etaFactor) refactorize(s *simplex) error {
	m := s.m
	e.etas = e.etas[:0]
	if cap(e.work) < m {
		e.work, e.mark = make([]float64, m), make([]bool, m)
	}
	work, mark := e.work[:m], e.mark[:m]
	// Process basis columns sparsest-first (deterministic tiebreak on
	// position) — short columns early keep the partial products sparse.
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
	singular := func(pos int) error {
		return fmt.Errorf("%w: singular basis at position %d", errNumerical, pos)
	}

	// Leading single-entry columns (slacks, mostly): no eta built so far
	// pivots on the column's row, so none touches it and its eta is the bare
	// diagonal 1/a. single[r] is that diagonal, 0 where no such eta exists.
	single := make([]float64, m)
	k := 0
	for ; k < m; k++ {
		v := s.basis[order[k]]
		rows, vals := s.col(v)
		if len(rows) != 1 || used[rows[0]] {
			break
		}
		r, a := rows[0], vals[0]
		if math.Abs(a) < singularTol {
			return singular(order[k])
		}
		single[r] = 1 / a
		e.etas = append(e.etas, eta{p: r, diag: single[r]})
		used[r] = true
		newBasis[r] = v
	}
	firstFull := len(e.etas)

	for _, pos := range order[k:] {
		v := s.basis[pos]
		// work = (E_t ··· E_1) A_v with the etas built so far. The
		// single-entry etas come first and each scales its own row only:
		// one multiply per original non-zero on such a row.
		nz := e.nz[:0]
		rows, vals := s.col(v)
		for i, r := range rows {
			a := vals[i]
			if d := single[r]; d != 0 {
				a *= d
			}
			work[r], mark[r] = a, true
			nz = append(nz, r)
		}
		for idx := firstFull; idx < len(e.etas); idx++ {
			et := &e.etas[idx]
			xp := work[et.p]
			if xp == 0 {
				continue
			}
			work[et.p] = et.diag * xp
			for i, r := range et.rows {
				work[r] += et.vals[i] * xp
				if !mark[r] {
					mark[r] = true
					nz = append(nz, r)
				}
			}
		}
		// Ascending rows: the pivot scan below then breaks ties toward the
		// lowest row, and the eta's rows come out sorted, which fixes the
		// summation order of every later BTRAN.
		slices.Sort(nz)
		// Pivot on the largest remaining row (stability).
		p := -1
		best := 0.0
		for _, r := range nz {
			if used[r] {
				continue
			}
			if a := math.Abs(work[r]); a > best {
				best, p = a, int(r)
			}
		}
		ok := p >= 0 && best >= singularTol
		if ok {
			e.push(p, work, nz)
			used[p] = true
			newBasis[p] = v
		}
		for _, r := range nz {
			work[r], mark[r] = 0, false
		}
		e.nz = nz
		if !ok {
			return singular(pos)
		}
	}
	copy(s.basis, newBasis)
	return nil
}

// push appends the eta eliminating column direction work with pivot row p;
// nz lists, ascending, the rows work may be non-zero on.
func (e *etaFactor) push(p int, work []float64, nz []int32) {
	inv := 1 / work[p]
	et := eta{p: int32(p), diag: inv}
	for _, r := range nz {
		a := work[r]
		if int(r) == p || a == 0 {
			continue
		}
		val := -a * inv
		if math.Abs(val) < dropTol {
			continue
		}
		et.rows = append(et.rows, r)
		et.vals = append(et.vals, val)
	}
	e.etas = append(e.etas, et)
}

// apply multiplies x by the eta product in order: x ← E_k ··· E_1 x.
func (e *etaFactor) apply(x []float64) {
	for idx := range e.etas {
		et := &e.etas[idx]
		xp := x[et.p]
		if xp == 0 {
			continue
		}
		x[et.p] = et.diag * xp
		for k, r := range et.rows {
			x[r] += et.vals[k] * xp
		}
	}
}

// applyT multiplies a row vector by the product from the right:
// y ← y E_k ··· E_1, processing etas last-to-first. Only component p of y
// changes per eta.
func (e *etaFactor) applyT(y []float64) {
	for idx := len(e.etas) - 1; idx >= 0; idx-- {
		et := &e.etas[idx]
		acc := et.diag * y[et.p]
		for k, r := range et.rows {
			acc += et.vals[k] * y[r]
		}
		y[et.p] = acc
	}
}

func (e *etaFactor) ftran(s *simplex, v int, alpha []float64) {
	for i := range alpha {
		alpha[i] = 0
	}
	rows, vals := s.col(v)
	for k, r := range rows {
		alpha[r] = vals[k]
	}
	e.apply(alpha)
}

func (e *etaFactor) btran(s *simplex, cb, y []float64) {
	copy(y, cb)
	e.applyT(y)
}

func (e *etaFactor) applyInv(s *simplex, x []float64) {
	e.apply(x)
}

func (e *etaFactor) update(s *simplex, p int, alpha []float64) error {
	if math.Abs(alpha[p]) < singularTol {
		return fmt.Errorf("%w: pivot %g at position %d", errNumerical, alpha[p], p)
	}
	nz := e.nz[:0]
	for r, a := range alpha {
		if a != 0 {
			nz = append(nz, int32(r))
		}
	}
	e.nz = nz
	e.push(p, alpha, nz)
	return nil
}
