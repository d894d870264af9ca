package solver

import (
	"testing"
)

func TestPartitionDisjointComponents(t *testing.T) {
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	z := tbl.NewVar("z")
	w := tbl.NewVar("w")
	cons := []Constraint{
		Le(VarExpr(x), ConstExpr(5)),   // comp A
		Le(VarExpr(y), VarExpr(z)),     // comp B
		Ge(VarExpr(x), ConstExpr(1)),   // comp A
		Le(VarExpr(z), ConstExpr(9)),   // comp B (shares z)
		Eq(VarExpr(w), ConstExpr(3)),   // comp C
		Le(ConstExpr(0), ConstExpr(1)), // ground
		Ne(ConstExpr(2), ConstExpr(3)), // ground (merges with above)
	}
	comps := Partition(cons)
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4: %v", len(comps), comps)
	}
	// Total constraint count preserved.
	total := 0
	for _, c := range comps {
		total += len(c)
	}
	if total != len(cons) {
		t.Errorf("constraints lost: %d of %d", total, len(cons))
	}
	// Variable-disjointness.
	seen := make(map[Var]int)
	for ci, comp := range comps {
		for _, c := range comp {
			for _, tm := range c.E.Terms {
				if prev, ok := seen[tm.Var]; ok && prev != ci {
					t.Errorf("variable %d appears in components %d and %d", tm.Var, prev, ci)
				}
				seen[tm.Var] = ci
			}
		}
	}
}

func TestPartitionTransitiveLinking(t *testing.T) {
	tbl := NewVarTable()
	a := tbl.NewVar("a")
	b := tbl.NewVar("b")
	c := tbl.NewVar("c")
	cons := []Constraint{
		Le(VarExpr(a), VarExpr(b)), // links a-b
		Le(VarExpr(b), VarExpr(c)), // links b-c => one component
	}
	comps := Partition(cons)
	if len(comps) != 1 {
		t.Fatalf("transitively linked constraints split into %d components", len(comps))
	}
}

func TestPartitionEmptyAndSingle(t *testing.T) {
	if Partition(nil) != nil {
		t.Error("Partition(nil) should be nil")
	}
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	comps := Partition([]Constraint{Le(VarExpr(x), ConstExpr(1))})
	if len(comps) != 1 || len(comps[0]) != 1 {
		t.Errorf("single constraint partition: %v", comps)
	}
}

func TestPartitionGroundOnly(t *testing.T) {
	// A conjunction of variable-free constraints is a single component: all
	// ground constraints anchor to one synthetic node.
	cons := []Constraint{
		Le(ConstExpr(0), ConstExpr(1)),
		Ne(ConstExpr(2), ConstExpr(3)),
		Ge(ConstExpr(5), ConstExpr(4)),
	}
	comps := Partition(cons)
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("ground-only partition: %v, want one 3-constraint component", comps)
	}
}

func TestPartitionSingleSharedVarChain(t *testing.T) {
	// Every constraint mentions x plus one private variable: x welds the
	// whole conjunction into a single component.
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	var cons []Constraint
	for i := 0; i < 5; i++ {
		p := tbl.NewVar("p")
		cons = append(cons, Le(VarExpr(x).Add(VarExpr(p)), ConstExpr(int64(i))))
	}
	comps := Partition(cons)
	if len(comps) != 1 {
		t.Fatalf("shared-variable chain split into %d components", len(comps))
	}
	if len(comps[0]) != len(cons) {
		t.Fatalf("component dropped constraints: %d of %d", len(comps[0]), len(cons))
	}
}

func TestPartitionOrderingDeterministic(t *testing.T) {
	// Components are emitted in order of their first constraint, and each
	// component preserves the conjunction's internal order — repeated calls
	// must agree exactly (cache keys depend on it).
	tbl := NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	z := tbl.NewVar("z")
	cons := []Constraint{
		Le(VarExpr(y), ConstExpr(2)), // component of y — first seen
		Le(VarExpr(x), ConstExpr(5)), // component of x
		Ge(VarExpr(z), ConstExpr(1)), // component of z
		Ge(VarExpr(y), ConstExpr(0)), // joins y's component
	}
	first := Partition(cons)
	if len(first) != 3 {
		t.Fatalf("components = %d, want 3", len(first))
	}
	if len(first[0]) != 2 || first[0][0].E.Terms[0].Var != y {
		t.Fatalf("first component is not y's (order not first-index): %v", first)
	}
	if first[0][1].Op != OpLe || first[0][0].Op != OpLe {
		// first[0] = [y<=2, y>=0] in original order; y>=0 is Le of -y.
		t.Logf("component internal order: %v", first[0])
	}
	for trial := 0; trial < 10; trial++ {
		again := Partition(cons)
		if len(again) != len(first) {
			t.Fatalf("trial %d: component count changed", trial)
		}
		for i := range first {
			if len(again[i]) != len(first[i]) {
				t.Fatalf("trial %d: component %d size changed", trial, i)
			}
			for j := range first[i] {
				if !constraintEq(again[i][j], first[i][j]) {
					t.Fatalf("trial %d: component %d constraint %d differs", trial, i, j)
				}
			}
		}
	}
}
