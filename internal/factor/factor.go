package factor

import (
	"fmt"
	"slices"
	"sort"
)

// Factor is a non-negative table over a sorted scope of discrete variables.
type Factor struct {
	// Vars is the sorted list of variable ids in the factor's scope.
	Vars []int
	// Card holds the cardinality of each variable, parallel to Vars.
	Card []int
	// Values holds the table entries in row-major order over Vars.
	Values []float64
}

// New creates a zeroed factor over the given variables. vars need not be
// sorted; card is parallel to vars as supplied.
func New(vars []int, card []int) *Factor {
	f, size := newScope(vars, card)
	f.Values = make([]float64, size)
	return f
}

// newScope returns a factor with vars and card sorted by variable id and no
// table yet, and the table's size.
func newScope(vars []int, card []int) (*Factor, int) {
	if len(vars) != len(card) {
		panic("factor: vars/card length mismatch")
	}
	idx := make([]int, len(vars))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return vars[idx[a]] < vars[idx[b]] })
	f := &Factor{
		Vars: make([]int, len(vars)),
		Card: make([]int, len(vars)),
	}
	size := 1
	for i, k := range idx {
		f.Vars[i] = vars[k]
		f.Card[i] = card[k]
		if card[k] <= 0 {
			panic(fmt.Sprintf("factor: non-positive cardinality %d for var %d", card[k], vars[k]))
		}
		size *= card[k]
	}
	for i := 1; i < len(f.Vars); i++ {
		if f.Vars[i] == f.Vars[i-1] {
			panic(fmt.Sprintf("factor: duplicate variable %d in scope", f.Vars[i]))
		}
	}
	return f, size
}

// FromTable returns a factor over values, a table laid out row-major over
// vars in the order given (the first variable slowest); vars need not be
// sorted, and card is parallel to them. When vars is sorted, values is
// already the factor's layout and the factor reads it in place; otherwise
// the table moves to a new one in the sorted layout by a strided walk.
// The caller must not change values while a factor reading it is in use.
// No operation of this package writes its operands; Normalize and Set
// write their receiver, so call them only on a factor that owns its table.
func FromTable(vars, card []int, values []float64) *Factor {
	if slices.IsSorted(vars) {
		f, size := newScope(vars, card)
		checkTableSize(values, size)
		f.Values = values
		return f
	}
	f := New(vars, card)
	checkTableSize(values, len(f.Values))
	given := strides(card)
	str := make([]int, len(f.Vars))
	for i, v := range f.Vars {
		str[i] = given[indexOf(vars, v)]
	}
	od, run, step := newWalk(f.Card, str)
	for idx := 0; ; idx += run {
		dst, src := f.Values[idx:idx+run], values[od.off[0]:]
		if step[0] == 1 {
			copy(dst, src)
		} else {
			for r := range dst {
				dst[r] = src[r*step[0]]
			}
		}
		if !od.next() {
			return f
		}
	}
}

func checkTableSize(values []float64, size int) {
	if len(values) != size {
		panic(fmt.Sprintf("factor: table has %d entries, scope needs %d", len(values), size))
	}
}

// Scalar returns a zero-variable factor holding the single value v.
func Scalar(v float64) *Factor {
	return &Factor{Values: []float64{v}}
}

// Contains reports whether v is in the factor's scope.
func (f *Factor) Contains(v int) bool { return indexOf(f.Vars, v) >= 0 }

// strides returns the row-major stride of each position of a scope with
// the given cardinalities.
func strides(card []int) []int {
	s := make([]int, len(card))
	acc := 1
	for i := len(card) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= card[i]
	}
	return s
}

// Index converts an assignment (parallel to Vars) to a flat table index.
func (f *Factor) Index(assign []int) int {
	if len(assign) != len(f.Vars) {
		panic("factor: assignment length mismatch")
	}
	idx := 0
	acc := 1
	for i := len(f.Vars) - 1; i >= 0; i-- {
		a := assign[i]
		if a < 0 || a >= f.Card[i] {
			panic(fmt.Sprintf("factor: assignment %d out of range for var %d (card %d)", a, f.Vars[i], f.Card[i]))
		}
		idx += a * acc
		acc *= f.Card[i]
	}
	return idx
}

// Set assigns the value at the given assignment.
func (f *Factor) Set(assign []int, v float64) { f.Values[f.Index(assign)] = v }

// Product returns the factor product f*g over the union scope, walking
// the union in row-major index order (see newWalk).
func Product(f, g *Factor) *Factor {
	out := newSorted(unionScope(f, g))
	od, run, step := newWalk(out.Card, stridesOver(out.Vars, f), stridesOver(out.Vars, g))
	for idx := 0; ; {
		fi, gi := od.off[0], od.off[1]
		for r := 0; r < run; r++ {
			out.Values[idx] = f.Values[fi] * g.Values[gi]
			idx++
			fi += step[0]
			gi += step[1]
		}
		if !od.next() {
			return out
		}
	}
}

// sumProductBlock bounds SumProduct's scratch row of terms.
const sumProductBlock = 512

// SumProduct returns the product of fs with variable v summed out, without
// building the product: for each output entry, in row-major order, it
// multiplies the operands in slice order (starting from 1) and adds the
// terms in increasing state of v (starting from 0). Those are the
// operations, in the order, that folding fs with Product from Scalar(1)
// and then summing v out entry by entry performs, so the result is
// bit-identical to that pair.
func SumProduct(fs []*Factor, v int) *Factor {
	vars, card := unionScope(fs...)
	pos := indexOf(vars, v)
	if pos < 0 {
		panic(fmt.Sprintf("factor: SumProduct of variable %d not in any scope", v))
	}
	states := card[pos]
	vStr := make([]int, len(fs))
	strides := make([][]int, len(fs))
	for j, f := range fs {
		s := stridesOver(vars, f)
		vStr[j] = s[pos]
		strides[j] = append(s[:pos], s[pos+1:]...)
	}
	out := newSorted(append(vars[:pos], vars[pos+1:]...), append(card[:pos], card[pos+1:]...))
	od, run, step := newWalk(out.Card, strides...)
	term := make([]float64, min(run, sumProductBlock))
	for idx := 0; ; idx += run {
		// The run is taken a block of terms at a time: per block, each
		// state of v fills the terms operand by operand, then adds them.
		for lo := 0; lo < run; lo += len(term) {
			t := term[:min(len(term), run-lo)]
			sum := out.Values[idx+lo : idx+lo+len(t)]
			for k := 0; k < states; k++ {
				for r := range t {
					t[r] = 1
				}
				for j, f := range fs {
					// Operands constant along the run (step 0) or
					// contiguous in it (step 1), the common cases, get
					// loops without per-term index arithmetic.
					vals := f.Values[od.off[j]+k*vStr[j]+lo*step[j]:]
					switch s := step[j]; s {
					case 0:
						for r := range t {
							t[r] *= vals[0]
						}
					case 1:
						for r, x := range vals[:len(t)] {
							t[r] *= x
						}
					default:
						for r := range t {
							t[r] *= vals[r*s]
						}
					}
				}
				for r, p := range t {
					sum[r] += p
				}
			}
		}
		if !od.next() {
			return out
		}
	}
}

// newWalk prepares a row-major walk over a scope with the given
// cardinalities for operands with the given strides (strides[j][i] is
// operand j's stride for variable i, 0 where it lacks the variable). The
// walk is an inner run of run entries, along which operand j's offset
// advances by step[j], and an odometer over the variables before the run.
//
// Adjacent variables are merged into one digit when every operand walks
// them contiguously: the walk visits the same entries in the same order,
// with longer runs and fewer odometer steps. A sorted copy, for example,
// becomes a single run.
func newWalk(card []int, strides ...[]int) (od *odometer, run int, step []int) {
	// Digits are built from the last variable backward. Variable i joins
	// the digit after it when each operand's stride for i equals that
	// digit's stride times its cardinality.
	var dc []int
	ds := make([][]int, len(strides))
	for i := len(card) - 1; i >= 0; i-- {
		d := len(dc) - 1
		merge := d >= 0
		for j, s := range strides {
			merge = merge && s[i] == ds[j][d]*dc[d]
		}
		if merge {
			dc[d] *= card[i]
			continue
		}
		dc = append(dc, card[i])
		for j, s := range strides {
			ds[j] = append(ds[j], s[i])
		}
	}
	run, step = 1, make([]int, len(strides))
	if len(dc) > 0 {
		run, dc = dc[0], dc[1:]
		for j := range ds {
			step[j], ds[j] = ds[j][0], ds[j][1:]
		}
	}
	slices.Reverse(dc)
	for _, s := range ds {
		slices.Reverse(s)
	}
	return newOdometer(dc, ds...), run, step
}

// odometer is a mixed-radix counter over a scope's variables, the last one
// fastest, so it visits the scope's entries in row-major index order. It
// carries one flat offset per operand table; a step adds a precomputed jump
// to each offset instead of decoding an index with div/mod.
type odometer struct {
	card  []int
	digit []int
	off   []int
	// jump[i*len(off)+j] is the change in operand j's offset when digit i
	// steps and every later digit wraps back to 0.
	jump []int
}

// newOdometer starts an odometer at all-zero digits; strides[j][i] is
// operand j's stride for digit i (0 where the operand lacks the variable).
func newOdometer(card []int, strides ...[]int) *odometer {
	n := len(strides)
	od := &odometer{
		card:  card,
		digit: make([]int, len(card)),
		off:   make([]int, n),
		jump:  make([]int, len(card)*n),
	}
	for j, s := range strides {
		wrap := 0 // offset change when every digit after i wraps to 0
		for i := len(card) - 1; i >= 0; i-- {
			od.jump[i*n+j] = s[i] - wrap
			wrap += (card[i] - 1) * s[i]
		}
	}
	return od
}

// next advances to the following entry and reports false after the last.
func (od *odometer) next() bool {
	n := len(od.off)
	for i := len(od.digit) - 1; i >= 0; i-- {
		od.digit[i]++
		if od.digit[i] < od.card[i] {
			for j, d := range od.jump[i*n : i*n+n] {
				od.off[j] += d
			}
			return true
		}
		od.digit[i] = 0
	}
	return false
}

// newSorted creates a zeroed factor over an already sorted, duplicate-free
// scope, taking ownership of vars and card.
func newSorted(vars, card []int) *Factor {
	size := 1
	for _, c := range card {
		size *= c
	}
	return &Factor{Vars: vars, Card: card, Values: make([]float64, size)}
}

// unionScope merges the sorted scopes of fs.
func unionScope(fs ...*Factor) ([]int, []int) {
	var vars, card []int
	for _, f := range fs {
		mv := make([]int, 0, len(vars)+len(f.Vars))
		mc := make([]int, 0, len(vars)+len(f.Vars))
		i, k := 0, 0
		for i < len(vars) || k < len(f.Vars) {
			switch {
			case k == len(f.Vars) || (i < len(vars) && vars[i] < f.Vars[k]):
				mv, mc = append(mv, vars[i]), append(mc, card[i])
				i++
			case i == len(vars) || f.Vars[k] < vars[i]:
				mv, mc = append(mv, f.Vars[k]), append(mc, f.Card[k])
				k++
			default:
				if card[i] != f.Card[k] {
					panic(fmt.Sprintf("factor: cardinality clash for var %d: %d vs %d", vars[i], card[i], f.Card[k]))
				}
				mv, mc = append(mv, vars[i]), append(mc, card[i])
				i++
				k++
			}
		}
		vars, card = mv, mc
	}
	return vars, card
}

// stridesOver returns f's stride for each variable of scope, 0 for the
// variables f lacks. f's scope must be a subset of scope.
func stridesOver(scope []int, f *Factor) []int {
	s := make([]int, len(scope))
	str := strides(f.Card)
	k := 0
	for i, v := range scope {
		if k < len(f.Vars) && f.Vars[k] == v {
			s[i] = str[k]
			k++
		}
	}
	if k != len(f.Vars) {
		panic(fmt.Sprintf("factor: scope %v is not a subset of %v", f.Vars, scope))
	}
	return s
}

// indexOf returns the position of v in vars, or -1.
func indexOf(vars []int, v int) int {
	for i, u := range vars {
		if u == v {
			return i
		}
	}
	return -1
}

// without returns a zeroed factor over f's scope minus position pos (a
// scalar factor when pos is the only variable).
func (f *Factor) without(pos int) *Factor {
	vars := append(append([]int(nil), f.Vars[:pos]...), f.Vars[pos+1:]...)
	card := append(append([]int(nil), f.Card[:pos]...), f.Card[pos+1:]...)
	return newSorted(vars, card)
}

// Reduce incorporates evidence v=value by keeping only the consistent
// entries and dropping v from the scope: a strided copy of one block per
// assignment of the variables before v.
func (f *Factor) Reduce(v, value int) *Factor {
	pos := indexOf(f.Vars, v)
	if pos < 0 {
		panic(fmt.Sprintf("factor: Reduce of variable %d not in scope", v))
	}
	if value < 0 || value >= f.Card[pos] {
		panic(fmt.Sprintf("factor: Reduce value %d out of range for var %d", value, v))
	}
	out := f.without(pos)
	if len(out.Vars) == 0 {
		// A scalar result is accumulated from +0, as SumProduct's is.
		out.Values[0] += f.Values[value]
		return out
	}
	states, inner := f.Card[pos], strides(f.Card)[pos]
	for o, fi := 0, value*inner; o < len(out.Values); o, fi = o+inner, fi+states*inner {
		copy(out.Values[o:o+inner], f.Values[fi:fi+inner])
	}
	return out
}

// Normalize scales the factor so its entries sum to 1 and returns the
// pre-normalization sum. A zero factor is left unchanged and returns 0.
func (f *Factor) Normalize() float64 {
	s := 0.0
	for _, v := range f.Values {
		s += v
	}
	if s > 0 {
		inv := 1 / s
		for i := range f.Values {
			f.Values[i] *= inv
		}
	}
	return s
}
