package factor

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsScope(t *testing.T) {
	f := New([]int{3, 1}, []int{2, 4})
	if f.Vars[0] != 1 || f.Vars[1] != 3 {
		t.Fatalf("Vars = %v, want [1 3]", f.Vars)
	}
	if f.Card[0] != 4 || f.Card[1] != 2 {
		t.Fatalf("Card = %v, want [4 2]", f.Card)
	}
	if len(f.Values) != 8 {
		t.Fatalf("%d values, want 8", len(f.Values))
	}
	if !f.Contains(3) || f.Contains(2) {
		t.Fatal("Contains wrong")
	}
}

func TestIndexAssignmentRoundTrip(t *testing.T) {
	f := New([]int{0, 1, 2}, []int{2, 3, 4})
	a := make([]int, len(f.Vars))
	for idx := range f.Values {
		decode(f, idx, a)
		if f.Index(a) != idx {
			t.Fatalf("round-trip failed at %d: %v", idx, a)
		}
	}
}

func TestSetAt(t *testing.T) {
	f := New([]int{0, 1}, []int{2, 2})
	f.Set([]int{1, 0}, 0.7)
	if f.Values[2] != 0.7 { // (1,0), last variable fastest
		t.Fatalf("Set placed 0.7 wrong: %v", f.Values)
	}
}

func TestDuplicateVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate scope var")
		}
	}()
	New([]int{1, 1}, []int{2, 2})
}

func TestProductDisjointScopes(t *testing.T) {
	a := New([]int{0}, []int{2})
	a.Values = []float64{0.4, 0.6}
	b := New([]int{1}, []int{2})
	b.Values = []float64{0.3, 0.7}
	p := Product(a, b)
	if len(p.Vars) != 2 {
		t.Fatalf("product scope %v", p.Vars)
	}
	if math.Abs(p.Values[1]-0.4*0.7) > 1e-12 { // (0,1)
		t.Fatalf("product value wrong: %v", p.Values)
	}
	sum := 0.0
	for _, v := range p.Values {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatal("product of two distributions should sum to 1")
	}
}

func TestProductSharedScope(t *testing.T) {
	a := New([]int{0, 1}, []int{2, 2})
	a.Values = []float64{1, 2, 3, 4} // (0,0) (0,1) (1,0) (1,1)
	b := New([]int{1}, []int{2})
	b.Values = []float64{10, 100}
	p := Product(a, b)
	want := []float64{10, 200, 30, 400}
	for i := range want {
		if p.Values[i] != want[i] {
			t.Fatalf("product = %v, want %v", p.Values, want)
		}
	}
}

func TestProductScalar(t *testing.T) {
	a := New([]int{2}, []int{3})
	a.Values = []float64{1, 2, 3}
	s := Scalar(2)
	p := Product(a, s)
	for i, v := range []float64{2, 4, 6} {
		if p.Values[i] != v {
			t.Fatalf("scalar product = %v", p.Values)
		}
	}
}

func TestProductCardinalityClash(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on cardinality clash")
		}
	}()
	a := New([]int{0}, []int{2})
	b := New([]int{0}, []int{3})
	Product(a, b)
}

func TestSumOut(t *testing.T) {
	f := New([]int{0, 1}, []int{2, 2})
	f.Values = []float64{1, 2, 3, 4}
	g := SumProduct([]*Factor{f}, 1)
	if len(g.Vars) != 1 || g.Vars[0] != 0 {
		t.Fatalf("sum-out scope %v", g.Vars)
	}
	if g.Values[0] != 3 || g.Values[1] != 7 {
		t.Fatalf("sum-out values %v", g.Values)
	}
}

func TestSumOutToScalar(t *testing.T) {
	f := New([]int{5}, []int{3})
	f.Values = []float64{1, 2, 3}
	g := SumProduct([]*Factor{f}, 5)
	if len(g.Vars) != 0 || g.Values[0] != 6 {
		t.Fatalf("scalar sum-out = %+v", g)
	}
}

func TestSumOutMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SumProduct([]*Factor{New([]int{0}, []int{2})}, 9)
}

func TestReduce(t *testing.T) {
	f := New([]int{0, 1}, []int{2, 3})
	for idx := range f.Values {
		f.Values[idx] = float64(idx + 1)
	}
	g := f.Reduce(1, 2)
	if len(g.Vars) != 1 || g.Vars[0] != 0 {
		t.Fatalf("Reduce scope %v", g.Vars)
	}
	// f(0,2)=3, f(1,2)=6.
	if g.Values[0] != 3 || g.Values[1] != 6 {
		t.Fatalf("Reduce values %v", g.Values)
	}
}

func TestReduceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New([]int{0}, []int{2}).Reduce(0, 5)
}

func TestNormalize(t *testing.T) {
	f := New([]int{0}, []int{4})
	f.Values = []float64{1, 1, 1, 1}
	s := f.Normalize()
	if s != 4 {
		t.Fatalf("pre-normalization sum = %g", s)
	}
	for _, v := range f.Values {
		if v != 0.25 {
			t.Fatalf("normalized = %v", f.Values)
		}
	}
	z := New([]int{0}, []int{2})
	if z.Normalize() != 0 {
		t.Fatal("zero factor normalize should return 0")
	}
}

// Property: product then sum-out in either order agrees: summing v out of
// P(a)*P(v) equals P(a) * sum(P(v)).
func TestProductSumOutCommutes(t *testing.T) {
	f := func(seed uint64) bool {
		vals := func(n int) []float64 {
			out := make([]float64, n)
			s := seed
			for i := range out {
				s = s*6364136223846793005 + 1442695040888963407
				out[i] = float64(s%1000)/1000 + 0.001
			}
			seed = s
			return out
		}
		a := New([]int{0}, []int{3})
		a.Values = vals(3)
		b := New([]int{1}, []int{4})
		b.Values = vals(4)
		p := SumProduct([]*Factor{a, b}, 1)
		bsum := 0.0
		for _, v := range b.Values {
			bsum += v
		}
		for i := range a.Values {
			if math.Abs(p.Values[i]-a.Values[i]*bsum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reduce then SumOut over remaining variables equals selecting the
// slice sum directly.
func TestReduceConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		fac := New([]int{0, 1}, []int{2, 3})
		s := seed
		for i := range fac.Values {
			s = s*6364136223846793005 + 1442695040888963407
			fac.Values[i] = float64(s % 100)
		}
		for v := 0; v < 3; v++ {
			red := fac.Reduce(1, v)
			total := red.Values[0] + red.Values[1]
			direct := fac.Values[v] + fac.Values[3+v] // (0,v) + (1,v)
			if math.Abs(total-direct) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The decode-based kernels that the stride walks replaced, kept as the
// reference oracle: each entry's assignment is decoded from its flat index
// with div/mod. They are exported (in this test file only) so the VE
// oracle in ve_test.go, an external test package, can use them too.

// ReferenceProduct is the decode-based factor product.
func ReferenceProduct(f, g *Factor) *Factor {
	cards := map[int]int{}
	for i, v := range f.Vars {
		cards[v] = f.Card[i]
	}
	for i, v := range g.Vars {
		if c, ok := cards[v]; ok && c != g.Card[i] {
			panic("reference: cardinality clash")
		}
		cards[v] = g.Card[i]
	}
	var vars, card []int
	for v := range cards {
		vars = append(vars, v)
	}
	sort.Ints(vars)
	for _, v := range vars {
		card = append(card, cards[v])
	}
	out := New(vars, card)
	assign := make([]int, len(out.Vars))
	fStr, gStr := strides(f.Card), strides(g.Card)
	for idx := range out.Values {
		decode(out, idx, assign)
		fi, gi := 0, 0
		for i, v := range f.Vars {
			fi += assign[indexOf(out.Vars, v)] * fStr[i]
		}
		for i, v := range g.Vars {
			gi += assign[indexOf(out.Vars, v)] * gStr[i]
		}
		out.Values[idx] = f.Values[fi] * g.Values[gi]
	}
	return out
}

// ReferenceSumOut is the decode-based marginalization of v.
func ReferenceSumOut(f *Factor, v int) *Factor {
	pos := indexOf(f.Vars, v)
	out, assign, outAssign := referenceDrop(f, pos)
	for idx, val := range f.Values {
		if val == 0 {
			continue
		}
		decode(f, idx, assign)
		keep(assign, pos, outAssign)
		if len(out.Vars) == 0 {
			out.Values[0] += val
		} else {
			out.Values[out.Index(outAssign)] += val
		}
	}
	return out
}

// ReferenceReduce is the decode-based evidence reduction v=value.
func ReferenceReduce(f *Factor, v, value int) *Factor {
	pos := indexOf(f.Vars, v)
	out, assign, outAssign := referenceDrop(f, pos)
	for idx, val := range f.Values {
		decode(f, idx, assign)
		if assign[pos] != value {
			continue
		}
		keep(assign, pos, outAssign)
		if len(out.Vars) == 0 {
			out.Values[0] += val
		} else {
			out.Values[out.Index(outAssign)] = val
		}
	}
	return out
}

// ReferenceSumProduct is VE's eliminate step as it was: the full product of
// fs, folded from Scalar(1), then v summed out.
func ReferenceSumProduct(fs []*Factor, v int) *Factor {
	prod := Scalar(1)
	for _, f := range fs {
		prod = ReferenceProduct(prod, f)
	}
	return ReferenceSumOut(prod, v)
}

// ReferenceFromTable converts a table laid out row-major over vars (in the
// order given) entry by entry, decoding each index and setting the entry
// of the sorted factor.
func ReferenceFromTable(vars, card []int, values []float64) *Factor {
	f := New(vars, card)
	given := &Factor{Vars: vars, Card: card}
	assign := make([]int, len(vars))
	sorted := make([]int, len(vars))
	for idx, val := range values {
		decode(given, idx, assign)
		for i, v := range f.Vars {
			sorted[i] = assign[indexOf(vars, v)]
		}
		f.Set(sorted, val)
	}
	return f
}

// decode fills assign with the assignment of flat index idx.
func decode(f *Factor, idx int, assign []int) {
	for i := len(f.Vars) - 1; i >= 0; i-- {
		assign[i] = idx % f.Card[i]
		idx /= f.Card[i]
	}
}

// referenceDrop returns a zeroed factor over f's scope minus pos and the
// assignment buffers for both scopes.
func referenceDrop(f *Factor, pos int) (*Factor, []int, []int) {
	var vars, card []int
	for i, u := range f.Vars {
		if i != pos {
			vars = append(vars, u)
			card = append(card, f.Card[i])
		}
	}
	out := Scalar(0)
	if len(vars) > 0 {
		out = New(vars, card)
	}
	return out, make([]int, len(f.Vars)), make([]int, len(vars))
}

// keep copies assign minus position pos into out.
func keep(assign []int, pos int, out []int) {
	k := 0
	for i := range assign {
		if i != pos {
			out[k] = assign[i]
			k++
		}
	}
}

// sameBits reports whether two factors have the same scope and
// bit-identical values.
func sameBits(a, b *Factor) bool {
	if !slices.Equal(a.Vars, b.Vars) || !slices.Equal(a.Card, b.Card) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// randomFactor draws a factor over scope (cardinalities from card, by
// variable id) whose entries are zero with probability 1/4.
func randomFactor(rng *rand.Rand, scope []int, card map[int]int) *Factor {
	c := make([]int, len(scope))
	for i, v := range scope {
		c[i] = card[v]
	}
	f := New(scope, c)
	for i := range f.Values {
		if rng.Intn(4) > 0 {
			f.Values[i] = rng.Float64()
		}
	}
	return f
}

// randomScope draws 0–5 distinct variable ids from pool.
func randomScope(rng *rand.Rand, pool []int) []int {
	n := rng.Intn(6)
	if n > len(pool) {
		n = len(pool)
	}
	perm := rng.Perm(len(pool))
	scope := make([]int, n)
	for i := range scope {
		scope[i] = pool[perm[i]]
	}
	return scope
}

// TestKernelsMatchReferenceProperty: on seeded random factors (scopes of
// 0–5 variables, cardinalities 1–4, overlapping and disjoint scopes, a
// quarter of the entries zero) Product, Reduce and SumProduct, over one
// operand and over several, return exactly the bits of the decode-based
// reference kernels.
func TestKernelsMatchReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var scalarSums, scalarReduces, disjoint, overlapping, fused int
	for trial := 0; trial < 400; trial++ {
		card := map[int]int{}
		for v := 0; v < 10; v++ {
			card[v] = 1 + rng.Intn(4)
		}
		// Half the trials draw g from ids disjoint from f's pool.
		fPool, gPool := []int{0, 1, 2, 3, 4, 5, 6}, []int{2, 3, 4, 5, 6, 7, 8}
		if trial%2 == 1 {
			fPool, gPool = []int{0, 2, 4, 6, 8}, []int{1, 3, 5, 7, 9}
		}
		f := randomFactor(rng, randomScope(rng, fPool), card)
		g := randomFactor(rng, randomScope(rng, gPool), card)
		if len(f.Vars) > 0 && len(g.Vars) > 0 {
			if len(ReferenceProduct(f, g).Vars) == len(f.Vars)+len(g.Vars) {
				disjoint++
			} else {
				overlapping++
			}
		}
		if got, want := Product(f, g), ReferenceProduct(f, g); !sameBits(got, want) {
			t.Fatalf("trial %d: Product(%v, %v) = %v, want %v", trial, f.Vars, g.Vars, got.Values, want.Values)
		}
		for _, v := range f.Vars {
			if got, want := SumProduct([]*Factor{f}, v), ReferenceSumOut(f, v); !sameBits(got, want) {
				t.Fatalf("trial %d: SumProduct({%v}, %d) = %v, want %v", trial, f.Vars, v, got.Values, want.Values)
			}
			if len(f.Vars) == 1 {
				scalarSums++
			}
			for val := 0; val < card[v]; val++ {
				if got, want := f.Reduce(v, val), ReferenceReduce(f, v, val); !sameBits(got, want) {
					t.Fatalf("trial %d: Reduce(%v, %d=%d) = %v, want %v", trial, f.Vars, v, val, got.Values, want.Values)
				}
				if len(f.Vars) == 1 {
					scalarReduces++
				}
			}
		}
		// The fused step over 1–3 operands, each mentioning v.
		if len(f.Vars) == 0 {
			continue
		}
		v := f.Vars[rng.Intn(len(f.Vars))]
		fs := []*Factor{f}
		for extra := rng.Intn(3); extra > 0; extra-- {
			scope := randomScope(rng, gPool)
			if !slices.Contains(scope, v) {
				scope = append(scope, v)
			}
			fs = append(fs, randomFactor(rng, scope, card))
		}
		if got, want := SumProduct(fs, v), ReferenceSumProduct(fs, v); !sameBits(got, want) {
			t.Fatalf("trial %d: SumProduct over %d factors, v=%d: %v, want %v", trial, len(fs), v, got.Values, want.Values)
		}
		fused++
	}
	if scalarSums == 0 || scalarReduces == 0 || disjoint == 0 || overlapping == 0 || fused == 0 {
		t.Fatalf("coverage: scalar sums %d, scalar reduces %d, disjoint %d, overlapping %d, fused %d",
			scalarSums, scalarReduces, disjoint, overlapping, fused)
	}
}

// TestFromTableMatchesReference: converting a table laid out over an
// unsorted scope equals the entry-by-entry reference, bit for bit, for
// sorted and permuted variable orders. A table over a sorted scope is
// already in the factor's layout and is read in place; any other is
// copied.
func TestFromTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		vars := randomScope(rng, []int{0, 1, 2, 3, 4, 5, 6})
		card := make([]int, len(vars))
		size := 1
		for i := range card {
			card[i] = 1 + rng.Intn(4)
			size *= card[i]
		}
		values := make([]float64, size)
		for i := range values {
			values[i] = rng.Float64()
		}
		got, want := FromTable(vars, card, values), ReferenceFromTable(vars, card, values)
		if !sameBits(got, want) {
			t.Fatalf("trial %d: FromTable over %v = %v, want %v", trial, vars, got.Values, want.Values)
		}
		if shared := &got.Values[0] == &values[0]; shared != slices.IsSorted(vars) {
			t.Fatalf("trial %d: FromTable over %v shares the table: %v, want %v", trial, vars, shared, !shared)
		}
	}
}
