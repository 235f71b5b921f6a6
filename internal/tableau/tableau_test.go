package tableau

import (
	"strings"
	"testing"

	"templatedep/internal/relation"
)

func twoCol() *relation.Schema { return relation.MustSchema("A", "B") }

func TestNewRenumbering(t *testing.T) {
	s := twoCol()
	// Input uses sparse variable numbers; New renumbers densely per column.
	tab, err := New(s, []VarTuple{{7, 3}, {7, 9}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.VarCount(0) != 1 || tab.VarCount(1) != 2 {
		t.Errorf("var counts = %d, %d", tab.VarCount(0), tab.VarCount(1))
	}
	if tab.Row(0)[0] != tab.Row(1)[0] {
		t.Error("shared variable lost")
	}
	if tab.Row(0)[1] == tab.Row(1)[1] {
		t.Error("distinct variables merged")
	}
}

func TestNewInOrderRows(t *testing.T) {
	s := twoCol()
	in := []VarTuple{{0, 0}, {0, 1}, {1, 1}}
	tab, err := New(s, in)
	if err != nil {
		t.Fatal(err)
	}
	if tab.VarCount(0) != 2 || tab.VarCount(1) != 2 {
		t.Errorf("var counts = %d, %d", tab.VarCount(0), tab.VarCount(1))
	}
	in[1][1] = 5
	if tab.Row(1)[1] != 1 {
		t.Error("tableau aliases its input rows")
	}
	// Out of order after an in-order prefix: the renumbering restarts.
	tab, err = New(s, []VarTuple{{0, 0}, {0, 2}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.VarCount(0) != 2 || tab.VarCount(1) != 3 || tab.Row(1)[1] != 1 || tab.Row(2)[1] != 2 {
		t.Errorf("renumbered rows %v, counts %d, %d", tab.Rows(), tab.VarCount(0), tab.VarCount(1))
	}
}

func TestNewErrors(t *testing.T) {
	s := twoCol()
	if _, err := New(s, []VarTuple{{1}}); err == nil {
		t.Error("wrong width accepted")
	}
	if _, err := New(s, []VarTuple{{-1, 0}}); err == nil {
		t.Error("negative variable accepted")
	}
}

func TestFreeze(t *testing.T) {
	s := twoCol()
	tab := MustNew(s, []VarTuple{{0, 0}, {0, 1}})
	inst, as := tab.Freeze()
	if inst.Len() != 2 {
		t.Errorf("frozen size %d", inst.Len())
	}
	if !inst.Contains(relation.Tuple{0, 0}) || !inst.Contains(relation.Tuple{0, 1}) {
		t.Error("frozen tuples wrong")
	}
	if as[0][0] != 0 || as[1][1] != 1 {
		t.Error("identity assignment wrong")
	}
}

func TestEachHomomorphismBasic(t *testing.T) {
	s := twoCol()
	// Pattern: two rows sharing the A variable.
	tab := MustNew(s, []VarTuple{{0, 0}, {0, 1}})
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{10, 1})
	inst.MustAdd(relation.Tuple{10, 2})
	inst.MustAdd(relation.Tuple{20, 3})
	// Homs: row0 and row1 map to tuples sharing A-value. Pairs within
	// {10,1},{10,2}: 2x2 = 4; within {20,3}: 1. Total 5.
	if got := tab.CountHomomorphisms(inst, nil); got != 5 {
		t.Errorf("CountHomomorphisms = %d, want 5", got)
	}
	if !tab.HasHomomorphism(inst, nil) {
		t.Error("HasHomomorphism = false")
	}
}

func TestEachHomomorphismNoMatch(t *testing.T) {
	s := twoCol()
	// Two rows that must differ in... actually patterns can always map all
	// rows to a single tuple; to get no homomorphism the instance must be
	// empty.
	tab := MustNew(s, []VarTuple{{0, 0}})
	inst := relation.NewInstance(s)
	if tab.HasHomomorphism(inst, nil) {
		t.Error("hom into empty instance")
	}
	if tab.CountHomomorphisms(inst, nil) != 0 {
		t.Error("count into empty instance")
	}
}

func TestEachHomomorphismSeed(t *testing.T) {
	s := twoCol()
	tab := MustNew(s, []VarTuple{{0, 0}})
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{1, 5})
	inst.MustAdd(relation.Tuple{2, 6})
	seed := NewAssignment(tab)
	seed[0][0] = 2 // force the A variable to 2
	n := 0
	var got relation.Value
	tab.EachHomomorphism(inst, seed, func(as Assignment) bool {
		n++
		got = as[1][0]
		return true
	})
	if n != 1 || got != 6 {
		t.Errorf("seeded homs = %d, B value %d", n, int(got))
	}
}

func TestEachPrefixHomomorphism(t *testing.T) {
	s := twoCol()
	// Row 0 is the "antecedent", row 1 the "conclusion" introducing a fresh
	// B variable.
	tab := MustNew(s, []VarTuple{{0, 0}, {0, 1}})
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{1, 5})
	n := 0
	tab.EachPrefixHomomorphism(inst, nil, 1, func(as Assignment) bool {
		n++
		if as[1][1] != Unbound {
			t.Error("conclusion-only variable should stay unbound")
		}
		return true
	})
	if n != 1 {
		t.Errorf("prefix homs = %d", n)
	}
	// rowLimit out of range clamps to all rows.
	if got := 0; true {
		tab.EachPrefixHomomorphism(inst, nil, 99, func(Assignment) bool { got++; return true })
		if got != 1 {
			t.Errorf("clamped homs = %d", got)
		}
	}
}

func TestEarlyStop(t *testing.T) {
	s := twoCol()
	tab := MustNew(s, []VarTuple{{0, 0}})
	inst := relation.NewInstance(s)
	for i := 0; i < 10; i++ {
		inst.MustAdd(relation.Tuple{relation.Value(i), 0})
	}
	n := 0
	tab.EachHomomorphism(inst, nil, func(Assignment) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop after %d", n)
	}
}

func TestRowSatisfiable(t *testing.T) {
	s := twoCol()
	tab := MustNew(s, []VarTuple{{0, 0}, {0, 1}})
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{3, 7})
	as := NewAssignment(tab)
	as[0][0] = 3
	// Conclusion row {0, 1}: A bound to 3, B unbound -> wildcard.
	if !RowSatisfiable(tab.Row(1), as, inst) {
		t.Error("should match with wildcard B")
	}
	as[0][0] = 4
	if RowSatisfiable(tab.Row(1), as, inst) {
		t.Error("should not match A=4")
	}
}

func TestAssignmentClone(t *testing.T) {
	s := twoCol()
	tab := MustNew(s, []VarTuple{{0, 0}})
	as := NewAssignment(tab)
	as[0][0] = 5
	cp := as.Clone()
	cp[0][0] = 9
	if as[0][0] != 5 {
		t.Error("Clone aliases")
	}
}

func TestBacktrackingRestoresBindings(t *testing.T) {
	s := relation.MustSchema("A", "B", "C")
	// Rows force joint consistency; enumeration must not leak bindings
	// between branches.
	tab := MustNew(s, []VarTuple{{0, 0, 0}, {0, 1, 1}, {1, 1, 2}})
	inst := relation.NewInstance(s)
	inst.MustAdd(relation.Tuple{1, 1, 1})
	inst.MustAdd(relation.Tuple{1, 2, 2})
	inst.MustAdd(relation.Tuple{2, 2, 3})
	inst.MustAdd(relation.Tuple{2, 1, 9})
	count := tab.CountHomomorphisms(inst, nil)
	// Verify against brute force.
	brute := 0
	tuples := inst.Tuples()
	for _, t0 := range tuples {
		for _, t1 := range tuples {
			for _, t2 := range tuples {
				// row0 = (a0,b0,c0), row1 = (a0,b1,c1), row2 = (a1,b1,c2)
				if t0[0] == t1[0] && t1[1] == t2[1] {
					brute++
				}
			}
		}
	}
	if count != brute {
		t.Errorf("CountHomomorphisms = %d, brute force = %d", count, brute)
	}
}

func TestTableauString(t *testing.T) {
	s := twoCol()
	tab := MustNew(s, []VarTuple{{0, 0}})
	if !strings.Contains(tab.String(), "R(a0, b0)") {
		t.Errorf("String = %q", tab.String())
	}
}
