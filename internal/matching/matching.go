// Package matching implements the module-mapping strategies of Section 2.1.2
// of Starlinger et al. (PVLDB 2014): greedy selection of mapped modules,
// maximum-weight bipartite matching (mw), and maximum-weight non-crossing
// matching (mwnc, Malucelli/Ottmann/Pretolani 1993) for ordered
// decompositions such as paths.
//
// All strategies operate on a dense weight matrix w[i][j] >= 0 giving the
// similarity of left element i to right element j. Pairs of weight 0 are
// never part of a returned matching: a zero-similarity mapping carries no
// information and would only distort additive scores.
package matching

import (
	"sort"
	"sync"
)

// Pair maps left element I to right element J with similarity Weight.
type Pair struct {
	I, J   int
	Weight float64
}

// Matching is a set of pairwise disjoint Pairs.
type Matching []Pair

// TotalWeight returns the additive similarity score of the matching —
// the nnsim of the paper's set-based measures.
func (m Matching) TotalWeight() float64 {
	var s float64
	for _, p := range m {
		s += p.Weight
	}
	return s
}

// Weights is a dense similarity matrix: Weights[i][j] is the similarity of
// left element i to right element j. Rows must have equal length.
type Weights [][]float64

// Dims returns the matrix dimensions (rows, cols).
func (w Weights) Dims() (int, int) {
	if len(w) == 0 {
		return 0, 0
	}
	return len(w), len(w[0])
}

// Rows views the row-major n×m buffer w as a Weights matrix sharing its
// storage.
func Rows(w []float64, n, m int) Weights {
	rows := make(Weights, n)
	for i := range rows {
		rows[i] = w[i*m : (i+1)*m : (i+1)*m]
	}
	return rows
}

// Greedy computes a matching by repeatedly selecting the highest-weight
// still-available pair, as used by Silva et al. for Module Sets comparison.
// Ties are broken by lower (i, then j) for determinism.
func Greedy(w Weights) Matching {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return nil
	}
	type cand struct {
		i, j int
		wt   float64
	}
	cands := make([]cand, 0, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if w[i][j] > 0 {
				cands = append(cands, cand{i, j, w[i][j]})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].wt != cands[b].wt {
			return cands[a].wt > cands[b].wt
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	usedI := make([]bool, n)
	usedJ := make([]bool, m)
	var out Matching
	for _, c := range cands {
		if usedI[c.i] || usedJ[c.j] {
			continue
		}
		usedI[c.i], usedJ[c.j] = true, true
		out = append(out, Pair{I: c.i, J: c.j, Weight: c.wt})
	}
	sortMatching(out)
	return out
}

// MaxWeight computes a maximum-weight bipartite matching (the paper's mw)
// using the Hungarian algorithm with potentials in O(n^3). The matrix need
// not be square; it is implicitly padded with zero-weight dummy elements.
// Zero-weight assignments are dropped from the result, so the returned
// matching maximises total weight over all (partial) matchings.
func MaxWeight(w Weights) Matching {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return nil
	}
	size := n
	if m > size {
		size = m
	}
	// Hungarian algorithm solves min-cost assignment; negate weights.
	// cost is 1-indexed per the classic potentials formulation.
	const inf = 1e18
	cost := make([][]float64, size+1)
	for i := range cost {
		cost[i] = make([]float64, size+1)
	}
	for i := 1; i <= size; i++ {
		for j := 1; j <= size; j++ {
			if i <= n && j <= m {
				cost[i][j] = -w[i-1][j-1]
			}
		}
	}
	u := make([]float64, size+1)
	v := make([]float64, size+1)
	p := make([]int, size+1) // p[j] = row assigned to column j
	way := make([]int, size+1)
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, size+1)
		used := make([]bool, size+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0][j] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= size; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	var out Matching
	for j := 1; j <= size; j++ {
		i := p[j]
		if i >= 1 && i <= n && j <= m && w[i-1][j-1] > 0 {
			out = append(out, Pair{I: i - 1, J: j - 1, Weight: w[i-1][j-1]})
		}
	}
	sortMatching(out)
	return out
}

// hungarian is the reusable scratch of MaxWeightTotal: the potentials, the
// column assignment, the augmenting-path links, the per-row slack and
// visited marks, and the row-to-column map of the final assignment.
type hungarian struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
	colOf      []int
}

var hungarianPool = sync.Pool{New: func() any { return new(hungarian) }}

// grow resizes every scratch slice to size+1 entries, reallocating only when
// a larger problem than any before arrives.
func (h *hungarian) grow(size int) {
	if cap(h.u) < size+1 {
		h.u = make([]float64, size+1)
		h.v = make([]float64, size+1)
		h.minv = make([]float64, size+1)
		h.p = make([]int, size+1)
		h.way = make([]int, size+1)
		h.used = make([]bool, size+1)
		h.colOf = make([]int, size+1)
	}
	h.u, h.v, h.minv = h.u[:size+1], h.v[:size+1], h.minv[:size+1]
	h.p, h.way, h.used, h.colOf = h.p[:size+1], h.way[:size+1], h.used[:size+1], h.colOf[:size+1]
	clear(h.u)
	clear(h.v)
	clear(h.p)
	clear(h.way)
}

// MaxWeightTotal returns MaxWeight(w).TotalWeight() for the n×m matrix
// stored row-major in w (w[i*m+j] is the weight of left i to right j),
// bit for bit, without allocating once its pooled scratch has grown to the
// problem size. It runs the same Hungarian iteration as MaxWeight — the
// cost of a cell is read from w on the fly instead of from a materialised
// cost matrix — and sums the positive assigned weights in row order, the
// order MaxWeight's sorted matching is summed in.
//
//wfsimvet:hotpath
func MaxWeightTotal(w []float64, n, m int) float64 {
	if n == 0 || m == 0 {
		return 0
	}
	size := n
	if m > size {
		size = m
	}
	const inf = 1e18
	h := hungarianPool.Get().(*hungarian)
	defer hungarianPool.Put(h)
	h.grow(size)
	u, v, minv, p, way, used := h.u, h.v, h.minv, h.p, h.way, h.used
	for i := 1; i <= size; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0, delta, j1 := p[j0], inf, 0
			for j := 1; j <= size; j++ {
				if used[j] {
					continue
				}
				c := 0.0 // padding cells of the implicit square matrix
				if i0 <= n && j <= m {
					c = -w[(i0-1)*m+j-1]
				}
				cur := c - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= size; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
			if j0 == 0 {
				break
			}
		}
	}
	colOf := h.colOf
	clear(colOf)
	for j := 1; j <= m; j++ {
		if i := p[j]; i >= 1 && i <= n {
			colOf[i] = j
		}
	}
	var total float64
	for i := 1; i <= n; i++ {
		if j := colOf[i]; j != 0 {
			if wt := w[(i-1)*m+j-1]; wt > 0 {
				total += wt
			}
		}
	}
	return total
}

// MaxWeightNonCrossing computes the maximum-weight non-crossing matching
// (the paper's mwnc) between two ordered sequences: the result never
// contains pairs (i,j) and (i+x, j-y) with x,y >= 1. This is the classic
// O(n*m) alignment DP:
//
//	f[i][j] = max(f[i-1][j], f[i][j-1], f[i-1][j-1] + w[i-1][j-1])
//
// with zero-weight pairs excluded from the reconstruction.
func MaxWeightNonCrossing(w Weights) Matching {
	n, m := w.Dims()
	if n == 0 || m == 0 {
		return nil
	}
	f := make([][]float64, n+1)
	for i := range f {
		f[i] = make([]float64, m+1)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			best := f[i-1][j]
			if f[i][j-1] > best {
				best = f[i][j-1]
			}
			if d := f[i-1][j-1] + w[i-1][j-1]; d > best {
				best = d
			}
			f[i][j] = best
		}
	}
	// Reconstruct, preferring the diagonal when it attains the optimum and
	// carries positive weight.
	var out Matching
	i, j := n, m
	for i > 0 && j > 0 {
		switch {
		case w[i-1][j-1] > 0 && f[i][j] == f[i-1][j-1]+w[i-1][j-1]:
			out = append(out, Pair{I: i - 1, J: j - 1, Weight: w[i-1][j-1]})
			i--
			j--
		case f[i][j] == f[i-1][j]:
			i--
		default:
			j--
		}
	}
	// Reverse into ascending order.
	for a, b := 0, len(out)-1; a < b; a, b = a+1, b-1 {
		out[a], out[b] = out[b], out[a]
	}
	return out
}

func sortMatching(m Matching) {
	sort.Slice(m, func(a, b int) bool { return m[a].I < m[b].I })
}

// IsNonCrossing reports whether the matching, when sorted by I, has strictly
// increasing J — i.e. contains no crossing pairs.
func (m Matching) IsNonCrossing() bool {
	s := append(Matching(nil), m...)
	sortMatching(s)
	for k := 1; k < len(s); k++ {
		if s[k].J <= s[k-1].J {
			return false
		}
	}
	return true
}

// IsValid reports whether no left or right element is matched twice and all
// indexes are within the given dimensions.
func (m Matching) IsValid(n, mcols int) bool {
	seenI := map[int]bool{}
	seenJ := map[int]bool{}
	for _, p := range m {
		if p.I < 0 || p.I >= n || p.J < 0 || p.J >= mcols {
			return false
		}
		if seenI[p.I] || seenJ[p.J] {
			return false
		}
		seenI[p.I] = true
		seenJ[p.J] = true
	}
	return true
}
