package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForceMax finds the true maximum-weight matching by exhaustive search
// over all subsets of assignments (feasible only for tiny matrices).
func bruteForceMax(w Weights) float64 {
	n, m := w.Dims()
	best := 0.0
	var rec func(i int, usedJ int, acc float64)
	rec = func(i int, usedJ int, acc float64) {
		if acc > best {
			best = acc
		}
		if i >= n {
			return
		}
		rec(i+1, usedJ, acc) // leave row i unmatched
		for j := 0; j < m; j++ {
			if usedJ&(1<<uint(j)) == 0 && w[i][j] > 0 {
				rec(i+1, usedJ|1<<uint(j), acc+w[i][j])
			}
		}
	}
	rec(0, 0, 0)
	return best
}

// bruteForceMWNC finds the true maximum-weight non-crossing matching.
func bruteForceMWNC(w Weights) float64 {
	n, m := w.Dims()
	best := 0.0
	var rec func(i, j int, acc float64)
	rec = func(i, j int, acc float64) {
		if acc > best {
			best = acc
		}
		for a := i; a < n; a++ {
			for b := j; b < m; b++ {
				if w[a][b] > 0 {
					rec(a+1, b+1, acc+w[a][b])
				}
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func randWeights(r *rand.Rand, n, m int) Weights {
	w := make(Weights, n)
	for i := range w {
		w[i] = make([]float64, m)
		for j := range w[i] {
			if r.Intn(3) > 0 {
				w[i][j] = float64(r.Intn(10)) / 10
			}
		}
	}
	return w
}

func TestMaxWeightSimple(t *testing.T) {
	// Greedy would pick (0,0)=0.9 then (1,1)=0.1 for 1.0;
	// optimum is (0,1)=0.8 + (1,0)=0.8 = 1.6.
	w := Weights{
		{0.9, 0.8},
		{0.8, 0.1},
	}
	m := MaxWeight(w)
	if got := m.TotalWeight(); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("MaxWeight total = %v, want 1.6 (matching %v)", got, m)
	}
	g := Greedy(w)
	if got := g.TotalWeight(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Greedy total = %v, want 1.0 (matching %v)", got, g)
	}
}

func TestMaxWeightRectangular(t *testing.T) {
	// 1 row, 3 cols and vice versa.
	w := Weights{{0.2, 0.9, 0.5}}
	m := MaxWeight(w)
	if len(m) != 1 || m[0].J != 1 {
		t.Errorf("matching = %v, want single pair (0,1)", m)
	}
	wt := Weights{{0.2}, {0.9}, {0.5}}
	m = MaxWeight(wt)
	if len(m) != 1 || m[0].I != 1 {
		t.Errorf("matching = %v, want single pair (1,0)", m)
	}
}

func TestMaxWeightZeroOmitted(t *testing.T) {
	w := Weights{
		{1, 0},
		{0, 0},
	}
	m := MaxWeight(w)
	if len(m) != 1 {
		t.Fatalf("matching = %v, want exactly one pair", m)
	}
	if m[0].I != 0 || m[0].J != 0 {
		t.Errorf("pair = %v, want (0,0)", m[0])
	}
}

func TestEmptyInputs(t *testing.T) {
	if m := MaxWeight(nil); m != nil {
		t.Errorf("MaxWeight(nil) = %v", m)
	}
	if m := Greedy(Weights{}); m != nil {
		t.Errorf("Greedy(empty) = %v", m)
	}
	if m := MaxWeightNonCrossing(nil); m != nil {
		t.Errorf("MWNC(nil) = %v", m)
	}
}

func TestMaxWeightNonCrossingSimple(t *testing.T) {
	// Crossing pairs (0,1) and (1,0) both weight 1; non-crossing optimum
	// can take only one of them.
	w := Weights{
		{0, 1},
		{1, 0},
	}
	m := MaxWeightNonCrossing(w)
	if got := m.TotalWeight(); got != 1 {
		t.Errorf("MWNC total = %v, want 1 (matching %v)", got, m)
	}
	if !m.IsNonCrossing() {
		t.Errorf("MWNC produced crossing matching %v", m)
	}
	// Diagonal is non-crossing and fully matchable.
	w = Weights{
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 1},
	}
	m = MaxWeightNonCrossing(w)
	if got := m.TotalWeight(); got != 3 {
		t.Errorf("diag MWNC total = %v, want 3", got)
	}
}

func TestPropertyMaxWeightOptimalVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(5)+1, r.Intn(5)+1
		w := randWeights(r, n, m)
		got := MaxWeight(w)
		if !got.IsValid(n, m) {
			return false
		}
		return math.Abs(got.TotalWeight()-bruteForceMax(w)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMWNCOptimalVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(5)+1, r.Intn(5)+1
		w := randWeights(r, n, m)
		got := MaxWeightNonCrossing(w)
		if !got.IsValid(n, m) || !got.IsNonCrossing() {
			return false
		}
		return math.Abs(got.TotalWeight()-bruteForceMWNC(w)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGreedyValidAndBoundedByOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(6)+1, r.Intn(6)+1
		w := randWeights(r, n, m)
		g := Greedy(w)
		if !g.IsValid(n, m) {
			return false
		}
		opt := MaxWeight(w).TotalWeight()
		// Greedy is a 1/2-approximation for weighted matching.
		return g.TotalWeight() <= opt+1e-9 && g.TotalWeight() >= opt/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMWNCBoundedByMaxWeight(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(6)+1, r.Intn(6)+1
		w := randWeights(r, n, m)
		return MaxWeightNonCrossing(w).TotalWeight() <= MaxWeight(w).TotalWeight()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIsNonCrossing(t *testing.T) {
	if !(Matching{{I: 0, J: 0}, {I: 1, J: 2}}).IsNonCrossing() {
		t.Error("increasing matching misreported as crossing")
	}
	if (Matching{{I: 0, J: 2}, {I: 1, J: 0}}).IsNonCrossing() {
		t.Error("crossing matching misreported as non-crossing")
	}
}

func TestIsValid(t *testing.T) {
	if !(Matching{{I: 0, J: 1}, {I: 1, J: 0}}).IsValid(2, 2) {
		t.Error("valid matching rejected")
	}
	if (Matching{{I: 0, J: 0}, {I: 0, J: 1}}).IsValid(2, 2) {
		t.Error("duplicate left index accepted")
	}
	if (Matching{{I: 0, J: 5}}).IsValid(2, 2) {
		t.Error("out-of-range index accepted")
	}
}

func BenchmarkMaxWeight10x10(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 10, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeight(w)
	}
}

func BenchmarkMaxWeight50x50(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeight(w)
	}
}

func BenchmarkGreedy50x50(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Greedy(w)
	}
}

func BenchmarkMWNC50x50(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	w := randWeights(r, 50, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MaxWeightNonCrossing(w)
	}
}

// flat copies w into the row-major layout MaxWeightTotal reads.
func flat(w Weights) []float64 {
	n, m := w.Dims()
	out := make([]float64, 0, n*m)
	for _, row := range w {
		out = append(out, row...)
	}
	return out
}

// TestMaxWeightTotalBitIdentical: the pooled kernel returns exactly the bits
// of MaxWeight(w).TotalWeight() on random rectangular matrices, mostly-zero
// matrices and matrices full of ties, including when one pooled scratch is
// reused across problems of shrinking and growing size.
func TestMaxWeightTotalBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	kinds := []struct {
		name string
		cell func() float64
	}{
		{"dense", func() float64 { return r.Float64() }},
		{"mostly-zero", func() float64 {
			if r.Intn(10) == 0 {
				return r.Float64()
			}
			return 0
		}},
		{"ties", func() float64 { return float64(r.Intn(3)) / 2 }},
		{"edit-like", func() float64 { return float64(r.Intn(13)) / float64(1+r.Intn(12)) }},
	}
	for _, k := range kinds {
		for trial := 0; trial < 400; trial++ {
			n, m := 1+r.Intn(14), 1+r.Intn(14)
			w := make(Weights, n)
			for i := range w {
				w[i] = make([]float64, m)
				for j := range w[i] {
					w[i][j] = k.cell()
				}
			}
			want := MaxWeight(w).TotalWeight()
			got := MaxWeightTotal(flat(w), n, m)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %dx%d: MaxWeightTotal = %v (%#x), MaxWeight total = %v (%#x)\n%v",
					k.name, n, m, got, math.Float64bits(got), want, math.Float64bits(want), w)
			}
		}
	}
	if got := MaxWeightTotal(nil, 0, 3); got != 0 {
		t.Errorf("empty matrix total = %v", got)
	}
}
