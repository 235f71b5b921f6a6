package td

import (
	"reflect"
	"testing"

	"templatedep/internal/relation"
)

// fuzzSchemas are the schemas every FuzzParse input is parsed under: a
// three-column one and the reduction's schema for nilpotent:3, whose
// column names collapse to shared prefixes (B1' and B2' both lower to b').
var fuzzSchemas = []*relation.Schema{
	relation.MustSchema("A", "B", "C"),
	relation.MustSchema("A0'", "A0''", "B1'", "B1''", "B2'", "B2''", "B3'", "B3''", "0'", "0''", "E", "E'"),
}

// FuzzParse throws arbitrary strings at the TD parser. It must never
// panic; it must accept and reject exactly what the reference parser in
// parse_ref_test.go does, with the same error text and the same tableau
// rows, both for one TD (Parse) and for a set (ParseSet); and accepted
// inputs must round-trip through Format, which must render what the
// reference renderer does.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"R(a, b, c) & R(a, b', c') -> R(a*, b, c')",
		"R(a, b, c) -> R(a, b, c)",
		"R(a,b,c)&R(a,b,c)->R(x,y,z)",
		"R(a, b, c) => R(a, b, c)",
		"-> R(a, b, c)",
		"R(a, b) -> R(a, b)",
		"R(, b, c) -> R(a, b, c)",
		"R(a, a, a) -> R(a, a, a)",
		// A line of the reduction of nilpotent:3 (D1 of its first equation).
		"R(a'0, a''0, b'c2v0, b''c3v0, b'c4v0, b''c5v0, b'c6v0, b''c7v0, '0, ''0, e0, e'0) & " +
			"R(a'1, a''1, b'c2v1, b''c3v1, b'c4v1, b''c5v1, b'c6v1, b''c7v1, '1, ''1, e0, e'1) & " +
			"R(a'2, a''2, b'c2v2, b''c3v2, b'c4v2, b''c5v2, b'c6v2, b''c7v2, '2, ''2, e0, e'2) & " +
			"R(a'0, a''1, b'c2v3, b''c3v3, b'c4v3, b''c5v3, b'c6v3, b''c7v3, '3, ''3, e1, e'3) & " +
			"R(a'1, a''2, b'c2v4, b''c3v4, b'c4v4, b''c5v4, b'c6v4, b''c7v4, '4, ''4, e2, e'3) -> " +
			"R(a'3, a''3, b'c2v0, b''c3v2, b'c4v5, b''c5v5, b'c6v5, b''c7v5, '5, ''5, e3, e'3)",
		// Typing violation between an antecedent and the conclusion.
		"R(a, b, c) -> R(b, a, c)",
		"R(a, b, c) => R(a, b, c') -> R(a, b, c)",
		"R(a, b, c) & & R(a, b', c) -> R(a, b, c)",
		"R(a, b, c) -> R(a, b, c) & R(a, b, c)",
		"R(a\tb, b, c) -> R(a\tb, b, c)",
		"d1: R(a, b, c) -> R(a, b, c)\n# comment\n\nd2: R(a, b, c) & R(a, b', c') -> R(a, b, c')",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, schema := range fuzzSchemas {
			checkParse(t, schema, input)
			checkParseSet(t, schema, input)
		}
	})
}

func checkParse(t *testing.T, schema *relation.Schema, input string) {
	d, err := Parse(schema, input, "fuzz")
	want, wantErr := refParse(schema, input)
	if !sameErr(err, wantErr) {
		t.Fatalf("Parse(%q): error %v, reference %v", input, err, wantErr)
	}
	if err != nil {
		return
	}
	if got := d.Tableau().Rows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Parse(%q): rows %v, reference %v", input, got, want)
	}
	text := d.Format()
	if ref := refFormat(d); text != ref {
		t.Fatalf("Format of %q: %q, reference %q", input, text, ref)
	}
	d2, err := Parse(schema, text, "fuzz2")
	if err != nil {
		t.Fatalf("accepted %q but rejected its own Format %q: %v", input, text, err)
	}
	if d2.Format() != text {
		t.Fatalf("Format not idempotent: %q vs %q", d2.Format(), text)
	}
}

func checkParseSet(t *testing.T, schema *relation.Schema, input string) {
	ds, err := ParseSet(schema, input)
	want, wantErr := refParseSet(schema, input)
	if !sameErr(err, wantErr) {
		t.Fatalf("ParseSet(%q): error %v, reference %v", input, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(ds) != len(want) {
		t.Fatalf("ParseSet(%q): %d TDs, reference %d", input, len(ds), len(want))
	}
	for i, d := range ds {
		if d.Name() != want[i].name || !reflect.DeepEqual(d.Tableau().Rows(), want[i].rows) {
			t.Fatalf("ParseSet(%q)[%d]: %q %v, reference %q %v",
				input, i, d.Name(), d.Tableau().Rows(), want[i].name, want[i].rows)
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
