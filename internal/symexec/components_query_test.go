package symexec

import (
	"math/rand"
	"testing"

	"repro/internal/solver"
)

// queryExecutor returns a bare executor for driving satisfiable directly.
func queryExecutor(tbl *solver.VarTable) *Executor {
	return &Executor{Table: tbl, Solver: solver.NewCached(solver.New())}
}

// TestComponentQueryEquivalence: on random sparse systems (most split into
// several independent components) the component query agrees with one
// monolithic solve of the whole conjunction, and its model satisfies every
// constraint. Each trial keeps going after a satisfiable verdict — commit,
// then query again — so recorded component models, dirty components and
// the model-check bookkeeping are all exercised.
func TestComponentQueryEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randCons := func(vars []solver.Var) solver.Constraint {
		e := solver.ConstExpr(int64(rng.Intn(7) - 3))
		e = e.Add(solver.VarExpr(vars[rng.Intn(len(vars))]).MulConst(int64(rng.Intn(3) - 1)))
		if rng.Intn(2) == 0 {
			e = e.Add(solver.VarExpr(vars[rng.Intn(len(vars))]).MulConst(int64(rng.Intn(3) - 1)))
		}
		op := []solver.ConstraintOp{solver.OpLe, solver.OpEq, solver.OpNe}[rng.Intn(3)]
		return solver.Constraint{E: e, Op: op}
	}
	decided := 0
	for trial := 0; trial < 200; trial++ {
		tbl := solver.NewVarTable()
		vars := make([]solver.Var, 2+rng.Intn(5))
		for i := range vars {
			vars[i] = tbl.NewVarBounded("v", -5, 5)
		}
		ex := queryExecutor(tbl)
		st := &State{}
		for step := 0; step < 4; step++ {
			extra := make([]solver.Constraint, 1+rng.Intn(3))
			for i := range extra {
				extra[i] = randCons(vars)
			}
			all := append(append([]solver.Constraint(nil), st.Constraints...), extra...)
			mono, _ := solver.New().Check(tbl, all)
			ok, m := ex.satisfiable(st, extra...)
			if mono == solver.Unknown {
				break
			}
			if ok != (mono == solver.Sat) {
				t.Fatalf("trial %d step %d: component query sat=%v, monolithic %v for %v", trial, step, ok, mono, all)
			}
			if !ok {
				break
			}
			decided++
			for _, c := range all {
				if m != nil && !c.Holds(m) {
					t.Fatalf("trial %d step %d: model %v violates %s", trial, step, m, c.String(tbl))
				}
			}
			ex.commit(st, m, extra...)
		}
	}
	if decided < 100 {
		t.Fatalf("only %d satisfiable queries decided", decided)
	}
}

// TestComponentQueryCaching: growing the path condition in one component
// looks up only that component; the other keeps its recorded model.
func TestComponentQueryCaching(t *testing.T) {
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	ex := queryExecutor(tbl)
	st := &State{}
	base := []solver.Constraint{
		solver.Ge(solver.VarExpr(x), solver.ConstExpr(3)),
		solver.Le(solver.VarExpr(x), solver.ConstExpr(9)),
		solver.Ge(solver.VarExpr(y), solver.ConstExpr(0)),
	}
	ok, m := ex.satisfiable(st, base...)
	if !ok || m == nil {
		t.Fatalf("base query: ok=%v model=%v", ok, m)
	}
	ex.commit(st, m, base...)
	before := ex.Solver.Hits + ex.Solver.Misses
	// y ≥ m[y]+1 fails under the cached model and touches only y's
	// component: one lookup, x's component untouched.
	extra := solver.Ge(solver.VarExpr(y), solver.ConstExpr(m[y]+1))
	ok, m2 := ex.satisfiable(st, extra)
	if !ok {
		t.Fatal("extended query unsatisfiable")
	}
	if got := ex.Solver.Hits + ex.Solver.Misses - before; got != 1 {
		t.Errorf("extended query made %d cache lookups, want 1 (only y's component)", got)
	}
	if m2[x] != m[x] || m2[x] < 3 || m2[x] > 9 || m2[y] < m[y]+1 {
		t.Errorf("merged model = %v (previous %v)", m2, m)
	}
}

// TestComponentQueryUnsatComponent: one unsatisfiable component refutes
// the query even when the others are satisfiable.
func TestComponentQueryUnsatComponent(t *testing.T) {
	tbl := solver.NewVarTable()
	x := tbl.NewVar("x")
	y := tbl.NewVar("y")
	ex := queryExecutor(tbl)
	st := &State{}
	st.appendConstraint(solver.Ge(solver.VarExpr(x), solver.ConstExpr(0)))
	if ok, _ := ex.satisfiable(st, solver.Lt(solver.VarExpr(y), solver.VarExpr(y))); ok {
		t.Error("query with an unsatisfiable component reported satisfiable")
	}
}
