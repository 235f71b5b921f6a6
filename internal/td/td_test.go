package td

import (
	"strings"
	"sync"
	"testing"

	"templatedep/internal/relation"
	"templatedep/internal/tableau"
)

func TestGarmentExample(t *testing.T) {
	s, d := GarmentExample()
	if s.Width() != 3 {
		t.Fatalf("width %d", s.Width())
	}
	if d.NumAntecedents() != 2 {
		t.Errorf("antecedents %d", d.NumAntecedents())
	}
	if d.IsFull() {
		t.Error("fig1 dependency is embedded, not full")
	}
	if d.IsTrivial() {
		t.Error("fig1 dependency is not trivial")
	}
	cols := d.ExistentialColumns()
	if len(cols) != 1 || s.Name(cols[0]) != "SUPPLIER" {
		t.Errorf("existential columns %v", cols)
	}
}

func TestGarmentSatisfaction(t *testing.T) {
	s, d := GarmentExample()
	inst := relation.NewInstance(s)
	// (StLaurent, EveningDress, 10), (StLaurent, Brief, 36):
	// supplier 0 supplies style 0 and size 1 -> need some supplier of
	// (style 0, size 1).
	inst.MustAdd(relation.Tuple{0, 0, 0})
	inst.MustAdd(relation.Tuple{0, 1, 1})
	ok, witness := d.Satisfies(inst)
	if ok {
		t.Fatal("should be violated: nobody supplies style 0 in size 1")
	}
	if witness == nil {
		t.Fatal("violation must come with a witness")
	}
	// Repair: add (BVD, style 0, size 1) with a different supplier.
	inst.MustAdd(relation.Tuple{1, 0, 1})
	// Still violated? Matches with (b,c) = (1,1)... R(a,b,c)=({0},{1},{1})
	// and R(a,b',c') with c'=0 require a supplier of style 1 size 0, etc.
	// Add closure tuples until satisfied; easier: check the specific match
	// is now fine and compute overall satisfaction explicitly.
	ok2, _ := d.Satisfies(inst)
	// Exhaustively verify the result against the definition.
	want := bruteSatisfies(d, inst)
	if ok2 != want {
		t.Errorf("Satisfies = %v, brute force = %v", ok2, want)
	}
}

// bruteSatisfies checks TD satisfaction by explicit enumeration.
func bruteSatisfies(d *TD, inst *relation.Instance) bool {
	k := d.NumAntecedents()
	idx := make([]int, k)
	tuples := inst.Tuples()
	if len(tuples) == 0 {
		return true
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == k {
			// Build assignment; check consistency.
			as := tableau.NewAssignment(d.Tableau())
			for ri := 0; ri < k; ri++ {
				row := d.Antecedent(ri)
				tup := tuples[idx[ri]]
				for a, v := range row {
					if as[a][v] == tableau.Unbound {
						as[a][v] = tup[a]
					} else if as[a][v] != tup[a] {
						return true // inconsistent match; vacuous
					}
				}
			}
			return tableau.RowSatisfiable(d.Conclusion(), as, inst)
		}
		for j := range tuples {
			idx[i] = j
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

func TestTrivialTD(t *testing.T) {
	s := relation.MustSchema("A", "B")
	// Conclusion identical to an antecedent.
	d := MustParse(s, "R(a, b) -> R(a, b)", "")
	if !d.IsTrivial() {
		t.Error("identity TD should be trivial")
	}
	// Conclusion with existential B matching any antecedent row.
	d2 := MustParse(s, "R(a, b) -> R(a, b2)", "")
	if !d2.IsTrivial() {
		t.Error("existential-B TD with matching A should be trivial")
	}
	// Non-trivial: conclusion pairs variables from different rows.
	d3 := MustParse(s, "R(a, b) & R(a2, b2) -> R(a, b2)", "")
	if d3.IsTrivial() {
		t.Error("cross-pairing TD should not be trivial")
	}
	// Trivial TDs hold in arbitrary instances.
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{0, 0})
	inst.MustAdd(relation.Tuple{1, 2})
	if ok, _ := d.Satisfies(inst); !ok {
		t.Error("trivial TD violated")
	}
	if ok, _ := d2.Satisfies(inst); !ok {
		t.Error("trivial TD violated")
	}
}

func TestIsFull(t *testing.T) {
	s := relation.MustSchema("A", "B")
	full := MustParse(s, "R(a, b) & R(a2, b) -> R(a2, b)", "")
	if !full.IsFull() {
		t.Error("should be full")
	}
	embedded := MustParse(s, "R(a, b) -> R(a2, b)", "")
	if embedded.IsFull() {
		t.Error("should be embedded")
	}
}

func TestFrozenAntecedents(t *testing.T) {
	s, d := GarmentExample()
	_ = s
	inst, as := d.FrozenAntecedents()
	if inst.Len() != 2 {
		t.Errorf("frozen size %d", inst.Len())
	}
	// The frozen instance does NOT satisfy the TD (that is why the chase
	// has work to do).
	if ok, _ := d.Satisfies(inst); ok {
		t.Error("frozen antecedents should violate fig1")
	}
	// Universal variables are bound, the existential supplier var is not.
	concl := d.Conclusion()
	if as[0][concl[0]] != tableau.Unbound {
		t.Error("existential supplier variable should be unbound")
	}
}

func TestNewValidation(t *testing.T) {
	s := relation.MustSchema("A")
	if _, err := New(s, nil, tableau.VarTuple{0}, ""); err == nil {
		t.Error("no antecedents accepted")
	}
	if _, err := New(s, []tableau.VarTuple{{0, 1}}, tableau.VarTuple{0}, ""); err == nil {
		t.Error("bad width accepted")
	}
}

func TestAntecedentAccessorPanics(t *testing.T) {
	s := relation.MustSchema("A")
	d := MustParse(s, "R(a) -> R(a)", "")
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Antecedent should panic")
		}
	}()
	d.Antecedent(5)
}

func TestFormatRoundTrip(t *testing.T) {
	s, d := GarmentExample()
	text := d.Format()
	d2, err := Parse(s, text, "roundtrip")
	if err != nil {
		t.Fatalf("reparse %q: %v", text, err)
	}
	if d2.Format() != text {
		t.Errorf("round trip changed: %q vs %q", d2.Format(), text)
	}
	if d.String() == "" || !strings.Contains(d.String(), "fig1") {
		t.Errorf("String = %q", d.String())
	}
}

func TestParseErrors(t *testing.T) {
	s := relation.MustSchema("A", "B")
	cases := []string{
		"R(a, b)",                      // no arrow
		"R(a) -> R(a, b)",              // width
		"R(a, b) -> R(a)",              // width
		"-> R(a, b)",                   // no antecedents
		"R(a, b) -> R(a, b) & R(a, b)", // conjunctive conclusion
		"R(a, b) -> S(a, b)",           // bad relation name
		"R(a, a) -> R(a, a)",           // typing violation: same var two cols
		"R(, b) -> R(a, b)",            // empty token
	}
	for _, c := range cases {
		if _, err := Parse(s, c, ""); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}

func TestParseSet(t *testing.T) {
	s := relation.MustSchema("A", "B")
	ds, err := ParseSet(s, `
# comment
d1: R(a, b) -> R(a, b2)

R(a, b) & R(a2, b) -> R(a2, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 {
		t.Fatalf("parsed %d TDs", len(ds))
	}
	if ds[0].Name() != "d1" || ds[1].Name() != "" {
		t.Errorf("names %q, %q", ds[0].Name(), ds[1].Name())
	}
	if _, err := ParseSet(s, "bogus line"); err == nil {
		t.Error("bogus line accepted")
	}
}

func TestSatisfiesEmptyInstance(t *testing.T) {
	s, d := GarmentExample()
	_ = s
	inst := relation.NewInstance(d.Schema())
	if ok, _ := d.Satisfies(inst); !ok {
		t.Error("TDs hold vacuously in the empty instance")
	}
}

func TestParsePrimesAndStars(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	d, err := Parse(s, "R(a, b, c) & R(a, b', c') -> R(a*, b, c')", "")
	if err != nil {
		t.Fatal(err)
	}
	if d.IsFull() {
		t.Error("a* is existential")
	}
}

// TestFormatConcurrentSchemas formats TDs over two schemas from several
// goroutines at once, so the per-schema prefix memo is shared and
// replaced concurrently; every rendering must still be the reference one.
func TestFormatConcurrentSchemas(t *testing.T) {
	var ds []*TD
	for _, s := range fuzzSchemas {
		// Each token may occur in one column only; name them by column.
		row := func(v string) string {
			cols := make([]string, s.Width())
			for a := range cols {
				cols[a] = v + string(rune('a'+a))
			}
			return "R(" + strings.Join(cols, ", ") + ")"
		}
		ds = append(ds, MustParse(s, row("x")+" & "+row("y")+" -> "+row("z"), ""))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := ds[(g+i)%len(ds)]
				if got, want := d.Format(), refFormat(d); got != want {
					t.Errorf("Format %q, reference %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
