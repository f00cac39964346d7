package eval

import (
	"fmt"
	"slices"
	"testing"

	"pmedic/internal/scenario"
)

// TestGrayCombinations property-tests the revolving-door enumerator over a
// grid of (m, k): every C(m, k) subset appears exactly once, every adjacent
// pair differs by exactly one swapped element, and the order starts at
// {0..k-1}. Goes with compat.go.
func TestGrayCombinations(t *testing.T) {
	for m := 0; m <= 10; m++ {
		for k := 0; k <= m; k++ {
			gray := GrayCombinations(m, k)
			lex := scenario.Combinations(m, k)
			if len(gray) != len(lex) {
				t.Fatalf("m=%d k=%d: %d gray combos, want %d", m, k, len(gray), len(lex))
			}
			seen := make(map[string]bool, len(gray))
			for i, c := range gray {
				if len(c) != k || !sortedDistinctInRange(c, m) {
					t.Fatalf("m=%d k=%d: combo %v is not a sorted k-subset of [0,%d)", m, k, c, m)
				}
				key := fmt.Sprint(c)
				if seen[key] {
					t.Fatalf("m=%d k=%d: combo %v emitted twice", m, k, c)
				}
				seen[key] = true
				// Adjacency: one element out, one in.
				if i > 0 && symDiff(gray[i-1], c) != 2 {
					t.Fatalf("m=%d k=%d: combos %v -> %v differ by %d elements, want one swap",
						m, k, gray[i-1], c, symDiff(gray[i-1], c)/2)
				}
			}
			// Canonical endpoints of the revolving-door order.
			if k >= 1 && k < m {
				first, last := gray[0], gray[len(gray)-1]
				if !slices.Equal(first, lex[0]) {
					t.Errorf("m=%d k=%d: first combo %v is not {0..k-1}", m, k, first)
				}
				if last[len(last)-1] != m-1 {
					t.Errorf("m=%d k=%d: last combo %v does not end at %d", m, k, last, m-1)
				}
			}
		}
	}
}

func sortedDistinctInRange(c []int, m int) bool {
	for i, v := range c {
		if v < 0 || v >= m || (i > 0 && v <= c[i-1]) {
			return false
		}
	}
	return true
}

// symDiff returns |a Δ b| for sorted slices.
func symDiff(a, b []int) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] < b[j]:
			i++
			d++
		default:
			j++
			d++
		}
	}
	return d + (len(a) - i) + (len(b) - j)
}
