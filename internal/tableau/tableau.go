// Package tableau implements tableaux — patterns of tuples over typed
// variables — and homomorphism search from tableaux into relation
// instances. Tableaux are the syntactic core of template dependencies: a
// TD's antecedents form a tableau, and TD satisfaction and the chase are
// both defined through tableau homomorphisms.
//
// Variables are scoped per attribute (column), mirroring the paper's typing
// restriction: a variable of column A simply cannot occur in column B,
// because variable identity is (attribute, index).
package tableau

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"templatedep/internal/relation"
)

// Var is a variable index, scoped to one attribute of a schema. Var values
// in a normalized tableau are dense: 0..n-1 per column.
type Var int

// VarTuple is one pattern row: one variable per attribute in schema order.
type VarTuple []Var

// Clone copies the row.
func (v VarTuple) Clone() VarTuple {
	out := make(VarTuple, len(v))
	copy(out, v)
	return out
}

// Equal reports component-wise equality.
func (v VarTuple) Equal(u VarTuple) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if v[i] != u[i] {
			return false
		}
	}
	return true
}

// Tableau is a finite set (list) of pattern rows over a schema. Construct
// with New, which validates widths and renumbers variables densely per
// column (preserving equalities).
type Tableau struct {
	schema *relation.Schema
	rows   []VarTuple
	// varCount[a] is the number of distinct variables in column a.
	varCount []int
	// joinPool recycles index-join scratch state (see join.go). A Tableau
	// is immutable after New, so sharing the pool across goroutines is safe.
	joinPool sync.Pool
}

// New builds a tableau from rows, renumbering variables densely per column.
// Variable identity is preserved within a column: rows sharing a variable
// index in the input share the renumbered variable. Rows already numbered
// in first-occurrence order per column (what td.Parse, diagram.TD and
// Format→Parse produce) are copied as they are; any other numbering goes
// through a per-column renumbering map.
func New(s *relation.Schema, rows []VarTuple) (*Tableau, error) {
	w := s.Width()
	t := &Tableau{schema: s, varCount: make([]int, w)}
	inOrder := true
	for ri, r := range rows {
		if len(r) != w {
			return nil, fmt.Errorf("tableau: row %d has width %d, want %d", ri, len(r), w)
		}
		for a, v := range r {
			if v < 0 {
				return nil, fmt.Errorf("tableau: negative variable in row %d column %s", ri, s.Name(relation.Attr(a)))
			}
			// In first-occurrence order, every variable is either one
			// already seen (below the count) or the next fresh one.
			if inOrder && int(v) >= t.varCount[a] {
				if int(v) == t.varCount[a] {
					t.varCount[a]++
				} else {
					inOrder = false
				}
			}
		}
	}
	cells := make(VarTuple, len(rows)*w)
	t.rows = make([]VarTuple, len(rows))
	for ri := range rows {
		t.rows[ri] = cells[ri*w : (ri+1)*w : (ri+1)*w]
	}
	if inOrder {
		for ri, r := range rows {
			copy(t.rows[ri], r)
		}
		return t, nil
	}
	clear(t.varCount)
	remap := make([]map[Var]Var, w)
	for a := range remap {
		remap[a] = make(map[Var]Var)
	}
	for ri, r := range rows {
		for a, v := range r {
			nv, ok := remap[a][v]
			if !ok {
				nv = Var(t.varCount[a])
				remap[a][v] = nv
				t.varCount[a]++
			}
			t.rows[ri][a] = nv
		}
	}
	return t, nil
}

// MustNew is New that panics on error.
func MustNew(s *relation.Schema, rows []VarTuple) *Tableau {
	t, err := New(s, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the tableau's schema.
func (t *Tableau) Schema() *relation.Schema { return t.schema }

// Len returns the number of rows.
func (t *Tableau) Len() int { return len(t.rows) }

// Row returns the i-th row (not copied).
func (t *Tableau) Row(i int) VarTuple { return t.rows[i] }

// Rows returns the rows (not copied).
func (t *Tableau) Rows() []VarTuple { return t.rows }

// VarCount returns the number of distinct variables in column a.
func (t *Tableau) VarCount(a relation.Attr) int { return t.varCount[a] }

// String renders the tableau with column-scoped variable names like a0, b1.
func (t *Tableau) String() string {
	var b strings.Builder
	for _, r := range t.rows {
		b.WriteString("R(")
		for a, v := range r {
			if a > 0 {
				b.WriteString(", ")
			}
			b.WriteString(strings.ToLower(t.schema.Name(relation.Attr(a))))
			b.WriteString(strconv.Itoa(int(v)))
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// Assignment maps variables to instance values, per column: Assignment[a][v]
// is the value of variable v of column a, or Unbound.
type Assignment [][]relation.Value

// Unbound marks an unassigned variable.
const Unbound = relation.Value(-1)

// NewAssignment creates an all-unbound assignment for t.
func NewAssignment(t *Tableau) Assignment {
	out := make(Assignment, t.schema.Width())
	for a := range out {
		col := make([]relation.Value, t.varCount[a])
		for i := range col {
			col[i] = Unbound
		}
		out[a] = col
	}
	return out
}

// Clone deep-copies the assignment.
func (as Assignment) Clone() Assignment {
	out := make(Assignment, len(as))
	for a := range as {
		out[a] = append([]relation.Value(nil), as[a]...)
	}
	return out
}

// Freeze converts the tableau into an instance by interpreting each
// variable as a distinct fresh value (the identity assignment), and returns
// the instance together with that assignment. This is the "frozen tableau"
// used to seed the chase: variable v of column a becomes value v.
func (t *Tableau) Freeze() (*relation.Instance, Assignment) {
	inst := relation.NewInstance(t.schema)
	as := NewAssignment(t)
	for a := range as {
		for v := range as[a] {
			as[a][v] = relation.Value(v)
		}
	}
	for _, r := range t.rows {
		tup := make(relation.Tuple, len(r))
		for a, v := range r {
			tup[a] = relation.Value(v)
		}
		inst.MustAdd(tup)
	}
	return inst, as
}

// matchRow reports whether row can be mapped to tup under as, recording the
// new bindings it makes in trail (as (attr, var) pairs) so they can be
// undone on backtrack.
func matchRow(row VarTuple, tup relation.Tuple, as Assignment, trail *[][2]int) bool {
	start := len(*trail)
	for a, v := range row {
		bound := as[a][v]
		if bound == Unbound {
			as[a][v] = tup[a]
			*trail = append(*trail, [2]int{a, int(v)})
		} else if bound != tup[a] {
			// Undo this row's bindings.
			for _, tr := range (*trail)[start:] {
				as[tr[0]][tr[1]] = Unbound
			}
			*trail = (*trail)[:start]
			return false
		}
	}
	return true
}

// EachHomomorphism enumerates every homomorphism from t into inst that
// extends seed (pass nil for no seed), invoking yield for each; if yield
// returns false the enumeration stops early. The assignment passed to yield
// is reused across calls — clone it to retain.
func (t *Tableau) EachHomomorphism(inst *relation.Instance, seed Assignment, yield func(Assignment) bool) {
	t.EachPrefixHomomorphism(inst, seed, len(t.rows), yield)
}

// EachPrefixHomomorphism enumerates homomorphisms of the first rowLimit
// rows of t into inst. Variables occurring only in later rows stay unbound
// in the yielded assignment. This is how a TD (whose conclusion is the last
// row of its combined tableau) matches its antecedents while leaving
// conclusion-only variables existential. It runs the index-driven join of
// join.go; EachPrefixHomomorphismScan is the naive-scan ablation reference.
func (t *Tableau) EachPrefixHomomorphism(inst *relation.Instance, seed Assignment, rowLimit int, yield func(Assignment) bool) {
	if rowLimit < 0 || rowLimit > len(t.rows) {
		rowLimit = len(t.rows)
	}
	t.EachRangeHomomorphism(inst, FullRanges(inst, rowLimit), -1, seed, yield)
}

// EachPrefixHomomorphismScan is EachPrefixHomomorphism via the naive
// nested-loop scan, kept as the ablation reference (mirroring the
// RowSatisfiable/RowSatisfiableScan pair).
func (t *Tableau) EachPrefixHomomorphismScan(inst *relation.Instance, seed Assignment, rowLimit int, yield func(Assignment) bool) {
	if rowLimit < 0 || rowLimit > len(t.rows) {
		rowLimit = len(t.rows)
	}
	candidates := make([][]relation.Tuple, rowLimit)
	for i := range candidates {
		candidates[i] = inst.Tuples()
	}
	t.EachCandidateHomomorphism(candidates, seed, yield)
}

// EachCandidateHomomorphism enumerates homomorphisms of the first
// len(candidates) rows, where row i may only map to a tuple in
// candidates[i], by scanning every candidate at every backtracking level.
// It remains the general API for candidate sets that are not index windows
// of an instance and the ablation reference for the index-driven join
// (EachRangeHomomorphism), which the chase and all default entry points use
// instead.
func (t *Tableau) EachCandidateHomomorphism(candidates [][]relation.Tuple, seed Assignment, yield func(Assignment) bool) {
	rowLimit := len(candidates)
	if rowLimit > len(t.rows) {
		rowLimit = len(t.rows)
	}
	as := NewAssignment(t)
	if seed != nil {
		for a := range seed {
			for v, val := range seed[a] {
				if val != Unbound {
					as[a][v] = val
				}
			}
		}
	}
	var trail [][2]int
	var rec func(ri int) bool // returns false to abort everything
	rec = func(ri int) bool {
		if ri == rowLimit {
			return yield(as)
		}
		row := t.rows[ri]
		for _, tup := range candidates[ri] {
			mark := len(trail)
			if matchRow(row, tup, as, &trail) {
				if !rec(ri + 1) {
					return false
				}
				for _, tr := range trail[mark:] {
					as[tr[0]][tr[1]] = Unbound
				}
				trail = trail[:mark]
			}
		}
		return true
	}
	rec(0)
}

// HasHomomorphism reports whether at least one homomorphism extending seed
// exists.
func (t *Tableau) HasHomomorphism(inst *relation.Instance, seed Assignment) bool {
	found := false
	t.EachHomomorphism(inst, seed, func(Assignment) bool {
		found = true
		return false
	})
	return found
}

// CountHomomorphisms counts all homomorphisms extending seed.
func (t *Tableau) CountHomomorphisms(inst *relation.Instance, seed Assignment) int {
	n := 0
	t.EachHomomorphism(inst, seed, func(Assignment) bool {
		n++
		return true
	})
	return n
}

// RowSatisfiable reports whether inst contains a tuple matching row under
// assignment as, treating unbound variables as wildcards. This is the
// conclusion check of TD satisfaction: bound positions must agree; unbound
// (existential) positions match anything. The instance's inverted index is
// consulted: only tuples on the shortest posting list among the bound
// positions are examined.
func RowSatisfiable(row VarTuple, as Assignment, inst *relation.Instance) bool {
	bestAttr, bestVal := -1, relation.Value(0)
	bestLen := -1
	for a, v := range row {
		if bound := as[a][v]; bound != Unbound {
			l := len(inst.Matching(relation.Attr(a), bound))
			if bestLen < 0 || l < bestLen {
				bestAttr, bestVal, bestLen = a, bound, l
			}
		}
	}
	if bestAttr < 0 {
		return inst.Len() > 0 // fully existential row matches any tuple
	}
	for _, idx := range inst.Matching(relation.Attr(bestAttr), bestVal) {
		tup := inst.Tuple(idx)
		ok := true
		for a, v := range row {
			if bound := as[a][v]; bound != Unbound && bound != tup[a] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// RowSatisfiableWithin is RowSatisfiable restricted to the instance prefix
// of tuples with index < limit. Posting lists hold ascending indices, so
// each list is scanned only up to the first out-of-prefix entry. This is
// the goal check of warm-started chases: a boundary snapshot exposes every
// intermediate instance of the run as a prefix, and this predicate answers
// "was the conclusion witnessed after round i" without materializing the
// prefix.
func RowSatisfiableWithin(row VarTuple, as Assignment, inst *relation.Instance, limit int) bool {
	if limit >= inst.Len() {
		return RowSatisfiable(row, as, inst)
	}
	bestAttr, bestVal := -1, relation.Value(0)
	bestLen := -1
	for a, v := range row {
		if bound := as[a][v]; bound != Unbound {
			l := len(inst.Matching(relation.Attr(a), bound))
			if bestLen < 0 || l < bestLen {
				bestAttr, bestVal, bestLen = a, bound, l
			}
		}
	}
	if bestAttr < 0 {
		return limit > 0 // fully existential row matches any in-prefix tuple
	}
	for _, idx := range inst.Matching(relation.Attr(bestAttr), bestVal) {
		if idx >= limit {
			break
		}
		tup := inst.Tuple(idx)
		ok := true
		for a, v := range row {
			if bound := as[a][v]; bound != Unbound && bound != tup[a] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// RowSatisfiableScan is the index-free linear scan, kept for the ablation
// benchmark against the posting-list version.
func RowSatisfiableScan(row VarTuple, as Assignment, inst *relation.Instance) bool {
	for _, tup := range inst.Tuples() {
		ok := true
		for a, v := range row {
			if bound := as[a][v]; bound != Unbound && bound != tup[a] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
