package td

import (
	"fmt"
	"strings"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
)

// Parse reads a TD from the textual syntax
//
//	R(a, b, c) & R(a, b', c') -> R(a*, b, c')
//
// over the given schema. Atoms are separated by '&'; the conclusion follows
// '->' (or '=>'). Each atom must have exactly one variable token per
// attribute. Variable tokens are arbitrary names without commas, spaces, or
// parentheses; primes and stars are welcome. The typing restriction is
// enforced: using the same token in two different columns is an error.
//
// Parsing costs time linear in len(input): one scan of the text and one
// token map for the whole TD.
func Parse(s *relation.Schema, input, name string) (*TD, error) {
	input = strings.TrimSpace(input)
	idx := strings.Index(input, "->")
	if idx < 0 {
		idx = strings.Index(input, "=>")
	}
	if idx < 0 {
		return nil, fmt.Errorf("td: missing '->' in %q", input)
	}
	left, right := input[:idx], input[idx+2:]

	// Rows are at most one per '&'-separated antecedent plus the
	// conclusion, and no more than the text can spell out (a row takes at
	// least 2w+2 bytes); their cells share one backing array, and the
	// token map is sized for every cell holding a distinct token, which is
	// nearly so on the reduction's TDs.
	w := s.Width()
	maxRows := min(strings.Count(left, "&")+2, len(input)/(2*w+2)+1)
	p := atomParser{
		s:     s,
		toks:  make(map[string]tokenVar, maxRows*w),
		next:  make([]tableau.Var, w),
		cells: make([]tableau.Var, 0, maxRows*w),
	}
	for more := true; more; {
		var atom string
		atom, left, more = strings.Cut(left, "&")
		if strings.TrimSpace(atom) == "" {
			continue
		}
		if err := p.atom(atom); err != nil {
			return nil, err
		}
	}
	if len(p.cells) == 0 {
		return nil, fmt.Errorf("td: no antecedents in %q", input)
	}
	if strings.IndexByte(right, '&') >= 0 {
		return nil, fmt.Errorf("td: a template dependency has a single conclusion atom (use package eid for conjunctive conclusions)")
	}
	if err := p.atom(right); err != nil {
		return nil, err
	}
	rows := make([]tableau.VarTuple, len(p.cells)/w)
	for i := range rows {
		rows[i] = p.cells[i*w : (i+1)*w : (i+1)*w]
	}
	return New(s, rows[:len(rows)-1], rows[len(rows)-1], name)
}

// tokenVar is the column and per-column variable a token denotes.
type tokenVar struct {
	col, v int32
}

// atomParser holds one TD's parse state: the token map (one entry per
// distinct token, which also enforces the typing restriction), the next
// free variable per column, and the row cells parsed so far. Variables are
// numbered in first-occurrence order per column, the order tableau.New
// keeps without renumbering.
type atomParser struct {
	s     *relation.Schema
	toks  map[string]tokenVar
	next  []tableau.Var
	cells []tableau.Var
}

// atom parses one R(...) atom and appends its row to p.cells.
func (p *atomParser) atom(atom string) error {
	atom = strings.TrimSpace(atom)
	if !strings.HasPrefix(atom, "R(") || !strings.HasSuffix(atom, ")") {
		return fmt.Errorf("td: atom %q must have the form R(...)", atom)
	}
	inner := atom[2 : len(atom)-1]
	w := p.s.Width()
	if n := strings.Count(inner, ",") + 1; n != w {
		return fmt.Errorf("td: atom %q has %d components, want %d", atom, n, w)
	}
	for a := 0; a < w; a++ {
		var tok string
		tok, inner, _ = strings.Cut(inner, ",")
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return fmt.Errorf("td: empty variable in atom %q", atom)
		}
		for i := 0; i < len(tok); i++ {
			if c := tok[i]; c == '(' || c == ')' || c == ' ' || c == '&' {
				return fmt.Errorf("td: bad variable token %q", tok)
			}
		}
		tv, seen := p.toks[tok]
		if !seen {
			tv = tokenVar{col: int32(a), v: int32(p.next[a])}
			p.next[a]++
			p.toks[tok] = tv
		} else if int(tv.col) != a {
			return fmt.Errorf("td: variable %q appears in columns %s and %s; the typing restriction forbids this",
				tok, p.s.Name(relation.Attr(tv.col)), p.s.Name(relation.Attr(a)))
		}
		p.cells = append(p.cells, tableau.Var(tv.v))
	}
	return nil
}

// MustParse is Parse that panics on error.
func MustParse(s *relation.Schema, input, name string) *TD {
	d, err := Parse(s, input, name)
	if err != nil {
		panic(err)
	}
	return d
}

// ParseSet reads several TDs, one per line; blank lines and '#' comments are
// skipped. Each TD may be prefixed with "name:".
func ParseSet(s *relation.Schema, input string) ([]*TD, error) {
	var out []*TD
	for ln, more := 0, true; more; ln++ {
		var line string
		line, input, more = strings.Cut(input, "\n")
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		name := ""
		if i := strings.IndexByte(line, ':'); i >= 0 && strings.IndexByte(line[:i], '(') < 0 {
			name = strings.TrimSpace(line[:i])
			line = line[i+1:]
		}
		d, err := Parse(s, line, name)
		if err != nil {
			return nil, fmt.Errorf("td: line %d: %w", ln+1, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// GarmentExample returns the paper's running example over the schema
// R(SUPPLIER, STYLE, SIZE):
//
//	R(a, b, c) & R(a, b', c') -> R(a*, b, c')
//
// "if a supplier supplies both garments of some style b and garments of
// some size c', then there is a supplier (not necessarily the same one) of
// style b garments in size c'" — the dependency of Fig. 1.
func GarmentExample() (*relation.Schema, *TD) {
	s := relation.MustSchema("SUPPLIER", "STYLE", "SIZE")
	d := MustParse(s, "R(a, b, c) & R(a, b', c') -> R(a*, b, c')", "fig1")
	return s, d
}
