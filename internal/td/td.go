// Package td implements (typed) template dependencies, the dependency class
// of Sadri and Ullman (1980) whose inference problem the paper proves
// undecidable.
//
// A template dependency states: whenever tuples matching the antecedent
// patterns are all present in the database, a tuple matching the conclusion
// pattern is present too. Antecedent variables are universally quantified;
// conclusion-only variables are existentially quantified. Under the typing
// restriction a variable belongs to exactly one column, which the
// representation enforces structurally (variables are per-column indices).
//
// A TD is "full" when every conclusion variable appears among the
// antecedents, and "embedded" otherwise. Inference for full TDs is
// decidable (the chase terminates); the paper's undecidability result is
// about the embedded case.
package td

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
)

// TD is a template dependency: antecedent pattern rows plus one conclusion
// row, sharing a typed variable space.
type TD struct {
	name string
	// tab holds the antecedent rows followed by the conclusion row (last).
	tab *tableau.Tableau
}

// New builds a TD from antecedent rows and a conclusion row. At least one
// antecedent is required. Variables are shared across rows per column:
// equal indices in the same column denote the same variable.
func New(s *relation.Schema, antecedents []tableau.VarTuple, conclusion tableau.VarTuple, name string) (*TD, error) {
	if len(antecedents) == 0 {
		return nil, fmt.Errorf("td: a template dependency needs at least one antecedent")
	}
	rows := make([]tableau.VarTuple, 0, len(antecedents)+1)
	rows = append(rows, antecedents...)
	rows = append(rows, conclusion)
	tab, err := tableau.New(s, rows)
	if err != nil {
		return nil, err
	}
	return &TD{name: name, tab: tab}, nil
}

// MustNew is New that panics on error.
func MustNew(s *relation.Schema, antecedents []tableau.VarTuple, conclusion tableau.VarTuple, name string) *TD {
	d, err := New(s, antecedents, conclusion, name)
	if err != nil {
		panic(err)
	}
	return d
}

// Name returns the TD's descriptive name.
func (d *TD) Name() string { return d.name }

// Schema returns the TD's schema.
func (d *TD) Schema() *relation.Schema { return d.tab.Schema() }

// NumAntecedents returns the number of antecedent rows.
func (d *TD) NumAntecedents() int { return d.tab.Len() - 1 }

// Antecedent returns the i-th antecedent row.
func (d *TD) Antecedent(i int) tableau.VarTuple {
	if i < 0 || i >= d.NumAntecedents() {
		panic(fmt.Sprintf("td: antecedent index %d out of range", i))
	}
	return d.tab.Row(i)
}

// Conclusion returns the conclusion row.
func (d *TD) Conclusion() tableau.VarTuple { return d.tab.Row(d.tab.Len() - 1) }

// Tableau returns the combined tableau (antecedents then conclusion).
func (d *TD) Tableau() *tableau.Tableau { return d.tab }

// AntecedentVarCount returns, per column, how many variables occur in the
// antecedent rows (variables are numbered so antecedent variables come
// first within each column — guaranteed by tableau renumbering order).
func (d *TD) antecedentVarCounts() []int {
	counts := make([]int, d.Schema().Width())
	for ri := 0; ri < d.NumAntecedents(); ri++ {
		for a, v := range d.tab.Row(ri) {
			if int(v)+1 > counts[a] {
				counts[a] = int(v) + 1
			}
		}
	}
	return counts
}

// IsFull reports whether every conclusion variable occurs in an antecedent.
func (d *TD) IsFull() bool {
	counts := d.antecedentVarCounts()
	for a, v := range d.Conclusion() {
		if int(v) >= counts[a] {
			return false
		}
	}
	return true
}

// ExistentialColumns returns the columns whose conclusion variable is
// existentially quantified (does not occur in the antecedents).
func (d *TD) ExistentialColumns() []relation.Attr {
	counts := d.antecedentVarCounts()
	var out []relation.Attr
	for a, v := range d.Conclusion() {
		if int(v) >= counts[a] {
			out = append(out, relation.Attr(a))
		}
	}
	return out
}

// IsTrivial reports whether the TD holds in every database: true iff some
// antecedent row agrees with the conclusion on every universally bound
// column (the conclusion tuple can then be chosen to be that row).
func (d *TD) IsTrivial() bool {
	counts := d.antecedentVarCounts()
	concl := d.Conclusion()
	for ri := 0; ri < d.NumAntecedents(); ri++ {
		row := d.tab.Row(ri)
		ok := true
		for a, v := range concl {
			if int(v) >= counts[a] {
				continue // existential: matches anything
			}
			if row[a] != v {
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

// Satisfies reports whether the finite instance satisfies the TD. When it
// does not, the returned assignment is a counterexample match of the
// antecedents (cloned; safe to retain).
func (d *TD) Satisfies(inst *relation.Instance) (bool, tableau.Assignment) {
	var witness tableau.Assignment
	ok := true
	d.tab.EachPrefixHomomorphism(inst, nil, d.NumAntecedents(), func(as tableau.Assignment) bool {
		if !tableau.RowSatisfiable(d.Conclusion(), as, inst) {
			ok = false
			witness = as.Clone()
			return false
		}
		return true
	})
	return ok, witness
}

// FrozenAntecedents freezes the TD's antecedent rows into an instance (the
// canonical database of the antecedents) and returns it with the identity
// assignment over ALL the TD's variables; conclusion-only variables stay
// unbound in the assignment.
func (d *TD) FrozenAntecedents() (*relation.Instance, tableau.Assignment) {
	inst := relation.NewInstance(d.Schema())
	as := tableau.NewAssignment(d.tab)
	for ri := 0; ri < d.NumAntecedents(); ri++ {
		row := d.tab.Row(ri)
		tup := make(relation.Tuple, len(row))
		for a, v := range row {
			tup[a] = relation.Value(v)
			as[a][v] = relation.Value(v)
		}
		inst.MustAdd(tup)
	}
	return inst, as
}

// Format renders the TD in the textual syntax accepted by Parse:
//
//	R(a0, b0, c0) & R(a0, b1, c1) -> R(a2, b0, c1)
//
// Variable names are the lower-cased column name followed by the variable
// index.
func (d *TD) Format() string {
	prefixes := columnPrefixes(d.Schema())
	rows := d.tab.Rows()
	// A row takes "R(" and ")", a prefix, an index and at most ", " per
	// column, and at most " -> " before it; indices are sized by the
	// column's largest one, so the buffer never grows.
	rowLen := 3 + 4
	for a, p := range prefixes {
		rowLen += len(p) + decimalLen(d.tab.VarCount(relation.Attr(a))) + 2
	}
	var b strings.Builder
	b.Grow(len(rows) * rowLen)
	var num [20]byte
	for i, r := range rows {
		switch {
		case i == len(rows)-1:
			b.WriteString(" -> ")
		case i > 0:
			b.WriteString(" & ")
		}
		b.WriteString("R(")
		for a, v := range r {
			if a > 0 {
				b.WriteString(", ")
			}
			b.WriteString(prefixes[a])
			b.Write(strconv.AppendInt(num[:0], int64(v), 10))
		}
		b.WriteByte(')')
	}
	return b.String()
}

// decimalLen returns the number of decimal digits of n >= 0.
func decimalLen(n int) int {
	l := 1
	for ; n >= 10; n /= 10 {
		l++
	}
	return l
}

// String renders the TD with its name.
func (d *TD) String() string {
	if d.name == "" {
		return d.Format()
	}
	return d.name + ": " + d.Format()
}

// prefixMemo holds the column prefixes of the schema formatted last. The
// TDs of one set share their schema, so rendering a set (a request's
// dependencies, a certificate's problem) derives the prefixes once. Like a
// sync.Pool it is invisible to callers: it memoizes a pure function of an
// immutable schema.
var prefixMemo atomic.Pointer[schemaPrefixes]

type schemaPrefixes struct {
	schema   *relation.Schema
	prefixes []string
}

// columnPrefixes derives one variable-name prefix per column: the
// lower-cased, digit-stripped column name, disambiguated with the column
// position whenever two columns collapse to the same prefix (K0' and K1'
// both yield k'). Distinct prefixes per column keep the rendered text
// inside the typing restriction, so Format round-trips through Parse on
// every schema. The result may be shared and must not be modified.
func columnPrefixes(s *relation.Schema) []string {
	if m := prefixMemo.Load(); m != nil && m.schema == s {
		return m.prefixes
	}
	n := s.Width()
	out := make([]string, n)
	count := make(map[string]int, n)
	for a := 0; a < n; a++ {
		out[a] = varPrefix(s.Name(relation.Attr(a)))
		count[out[a]]++
	}
	for a := 0; a < n; a++ {
		if count[out[a]] > 1 {
			out[a] = out[a] + "c" + strconv.Itoa(a) + "v"
		}
	}
	prefixMemo.Store(&schemaPrefixes{schema: s, prefixes: out})
	return out
}

func varPrefix(attrName string) string {
	p := strings.ToLower(attrName)
	// Strip characters that would collide with the index digits.
	p = strings.Map(func(r rune) rune {
		if r >= '0' && r <= '9' {
			return -1
		}
		return r
	}, p)
	if p == "" {
		p = "x"
	}
	return p
}
