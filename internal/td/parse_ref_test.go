package td

import (
	"fmt"
	"strconv"
	"strings"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
)

// refParse is the TD parser as it stood before Parse became a single-pass
// scanner: strings.Split per atom, a token map per column plus a global
// one, and the tableau's map renumbering. It returns the rows the old
// tableau.New would have stored (antecedents, then the conclusion), so the
// differential fuzz compares against a path that shares no code with the
// current parser or the tableau's in-order fast path.
func refParse(s *relation.Schema, input string) ([]tableau.VarTuple, error) {
	input = strings.TrimSpace(input)
	sep := "->"
	idx := strings.Index(input, "->")
	if idx < 0 {
		idx = strings.Index(input, "=>")
		sep = "=>"
	}
	if idx < 0 {
		return nil, fmt.Errorf("td: missing '->' in %q", input)
	}
	left, right := input[:idx], input[idx+len(sep):]

	varOf := make([]map[string]tableau.Var, s.Width())
	for a := range varOf {
		varOf[a] = make(map[string]tableau.Var)
	}
	next := make([]tableau.Var, s.Width())
	colOf := make(map[string]int)

	parseAtom := func(atom string) (tableau.VarTuple, error) {
		atom = strings.TrimSpace(atom)
		if !strings.HasPrefix(atom, "R(") || !strings.HasSuffix(atom, ")") {
			return nil, fmt.Errorf("td: atom %q must have the form R(...)", atom)
		}
		inner := atom[2 : len(atom)-1]
		parts := strings.Split(inner, ",")
		if len(parts) != s.Width() {
			return nil, fmt.Errorf("td: atom %q has %d components, want %d", atom, len(parts), s.Width())
		}
		row := make(tableau.VarTuple, s.Width())
		for a, tok := range parts {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				return nil, fmt.Errorf("td: empty variable in atom %q", atom)
			}
			if strings.ContainsAny(tok, "() &") {
				return nil, fmt.Errorf("td: bad variable token %q", tok)
			}
			if prev, seen := colOf[tok]; seen && prev != a {
				return nil, fmt.Errorf("td: variable %q appears in columns %s and %s; the typing restriction forbids this",
					tok, s.Name(relation.Attr(prev)), s.Name(relation.Attr(a)))
			}
			colOf[tok] = a
			v, ok := varOf[a][tok]
			if !ok {
				v = next[a]
				next[a]++
				varOf[a][tok] = v
			}
			row[a] = v
		}
		return row, nil
	}

	var rows []tableau.VarTuple
	for _, atom := range strings.Split(left, "&") {
		if strings.TrimSpace(atom) == "" {
			continue
		}
		row, err := parseAtom(atom)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("td: no antecedents in %q", input)
	}
	if strings.Contains(right, "&") {
		return nil, fmt.Errorf("td: a template dependency has a single conclusion atom (use package eid for conjunctive conclusions)")
	}
	conclusion, err := parseAtom(right)
	if err != nil {
		return nil, err
	}
	return refRenumber(append(rows, conclusion)), nil
}

// refRenumber is the old tableau.New renumbering: a map per column from
// input variable to first-occurrence index.
func refRenumber(rows []tableau.VarTuple) []tableau.VarTuple {
	if len(rows) == 0 {
		return nil
	}
	remap := make([]map[tableau.Var]tableau.Var, len(rows[0]))
	for a := range remap {
		remap[a] = make(map[tableau.Var]tableau.Var)
	}
	out := make([]tableau.VarTuple, len(rows))
	for ri, r := range rows {
		nr := make(tableau.VarTuple, len(r))
		for a, v := range r {
			nv, ok := remap[a][v]
			if !ok {
				nv = tableau.Var(len(remap[a]))
				remap[a][v] = nv
			}
			nr[a] = nv
		}
		out[ri] = nr
	}
	return out
}

// refNamedTD is one ParseSet result of the reference: the TD's name and
// its tableau rows.
type refNamedTD struct {
	name string
	rows []tableau.VarTuple
}

// refParseSet is the old ParseSet over refParse.
func refParseSet(s *relation.Schema, input string) ([]refNamedTD, error) {
	var out []refNamedTD
	for ln, line := range strings.Split(input, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := ""
		if i := strings.Index(line, ":"); i >= 0 && !strings.Contains(line[:i], "(") {
			name = strings.TrimSpace(line[:i])
			line = line[i+1:]
		}
		rows, err := refParse(s, line)
		if err != nil {
			return nil, fmt.Errorf("td: line %d: %w", ln+1, err)
		}
		out = append(out, refNamedTD{name: name, rows: rows})
	}
	return out, nil
}

// refFormat is Format as it stood before it rendered into one buffer: a
// builder per atom, strconv.Itoa per index, and prefixes lower-cased and
// digit-stripped with a string allocation per step.
func refFormat(d *TD) string {
	s := d.Schema()
	prefixes := make([]string, s.Width())
	count := make(map[string]int)
	for a := range prefixes {
		p := strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return -1
			}
			return r
		}, strings.ToLower(s.Name(relation.Attr(a))))
		if p == "" {
			p = "x"
		}
		prefixes[a] = p
		count[p]++
	}
	for a := range prefixes {
		if count[prefixes[a]] > 1 {
			prefixes[a] = prefixes[a] + "c" + strconv.Itoa(a) + "v"
		}
	}
	atom := func(r tableau.VarTuple) string {
		var b strings.Builder
		b.WriteString("R(")
		for a, v := range r {
			if a > 0 {
				b.WriteString(", ")
			}
			b.WriteString(prefixes[a])
			b.WriteString(strconv.Itoa(int(v)))
		}
		b.WriteString(")")
		return b.String()
	}
	var b strings.Builder
	for i := 0; i < d.NumAntecedents(); i++ {
		if i > 0 {
			b.WriteString(" & ")
		}
		b.WriteString(atom(d.Antecedent(i)))
	}
	b.WriteString(" -> ")
	b.WriteString(atom(d.Conclusion()))
	return b.String()
}
