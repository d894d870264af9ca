package symexec

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/solver"
	"repro/internal/trace"
)

// BenchmarkSymexecConcreteChain measures single-path symbolic execution
// (everything concrete: the interpreter-parity fast path).
func BenchmarkSymexecConcreteChain(b *testing.B) {
	prog := bytecode.MustCompile("conc", `
func main() int {
  int s = 0;
  for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
  return s;
}`)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		ex := New(prog, nil, DefaultOptions())
		res := ex.Run()
		if res.Paths != 1 || res.Forks != 0 {
			b.Fatalf("res=%+v", res)
		}
	}
}

// BenchmarkSymexecSymbolicLoop measures a guard-forking loop over a
// symbolic bound — the copy-loop shape of every evaluation program.
func BenchmarkSymexecSymbolicLoop(b *testing.B) {
	prog := bytecode.MustCompile("symloop", `
func main() int {
  int x = input_int("x");
  int i = 0;
  while (i < x) {
    if (i >= 64) { return i; }
    i = i + 1;
  }
  return i;
}`)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		opts := DefaultOptions()
		opts.StopAtFirstVuln = false
		ex := New(prog, nil, opts)
		res := ex.Run()
		if res.Paths == 0 {
			b.Fatal("no paths")
		}
	}
}

// BenchmarkSymexecOverflowHunt measures the end-to-end vulnerability
// search on the canonical string-copy overflow.
func BenchmarkSymexecOverflowHunt(b *testing.B) {
	prog := bytecode.MustCompile("hunt", `
func sink(string s) void {
  buf dst[32];
  int i = 0;
  while (i < len(s)) {
    bufwrite(dst, i, char(s, i));
    i = i + 1;
  }
  return;
}
func main() int {
  sink(input_string("p"));
  return 0;
}`)
	spec := &InputSpec{MaxStrLen: 64}
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		ex := New(prog, spec, DefaultOptions())
		res := ex.Run()
		if !res.Found() {
			b.Fatal("overflow not found")
		}
	}
}

// benchForkState builds a state shaped like mid-exploration reality: a
// deep call stack with populated locals/stacks, globals, a written buffer,
// a grown path condition and its variable bookkeeping.
func benchForkState(depth, localsPerFrame, nCons int) *State {
	tbl := solver.NewVarTable()
	st := &State{ID: 1, Status: StatusActive}
	for d := 0; d < depth; d++ {
		fr := &Frame{Fn: &bytecode.Fn{Name: "f"}, PC: d}
		for l := 0; l < localsPerFrame; l++ {
			fr.Locals = append(fr.Locals, IntVal(int64(d*100+l)))
		}
		fr.Stack = append(fr.Stack, IntVal(int64(d)))
		st.Frames = append(st.Frames, fr)
	}
	for g := 0; g < 8; g++ {
		st.Globals = append(st.Globals, IntVal(int64(g)))
	}
	buf := NewSymBuffer(64)
	st.setBufCell(buf, 0, IntVal(1))
	for i := 0; i < nCons; i++ {
		v := tbl.NewVarBounded("v", 0, 255)
		c := solver.Ge(solver.VarExpr(v), solver.ConstExpr(int64(i%16)))
		st.appendConstraint(c)
	}
	return st
}

// legacyFork reproduces the pre-copy-on-write fork: deep-copy every frame,
// the globals, the constraint and trace slices, the component index and
// the buffer heap. Kept as the benchmark baseline for State.fork.
func legacyFork(st *State) *State {
	ns := &State{ID: -1, Status: StatusActive, Depth: st.Depth,
		PathIndex: st.PathIndex, Diverted: st.Diverted, Revived: st.Revived,
		LastModel: st.LastModel, pcDigest: st.pcDigest}
	ns.Frames = make([]*Frame, len(st.Frames))
	for i, f := range st.Frames {
		ns.Frames[i] = f.ownedCopy()
	}
	ns.Globals = append([]Value(nil), st.Globals...)
	ns.Constraints = make([]solver.Constraint, len(st.Constraints), len(st.Constraints)+4)
	copy(ns.Constraints, st.Constraints)
	ns.Trace = make([]trace.Location, len(st.Trace), len(st.Trace)+4)
	copy(ns.Trace, st.Trace)
	for i, c := range ns.Constraints {
		ns.pcw().add(c, int32(i), solver.HashConstraint(c))
	}
	if st.heap != nil {
		ns.heap = make(map[*SymBuffer]*bufCells, len(st.heap))
		ns.heapTok = new(heapToken)
		for b, c := range st.heap {
			nc := &bufCells{owner: ns.heapTok, smeared: c.smeared,
				chunks: make([]*cellChunk, len(c.chunks))}
			for i, ch := range c.chunks {
				if ch != nil {
					nch := &cellChunk{owner: ns.heapTok, data: ch.data}
					nc.chunks[i] = nch
				}
			}
			ns.heap[b] = nc
		}
	}
	return ns
}

// BenchmarkForkDeepCopy is the old eager fork on a deep state.
func BenchmarkForkDeepCopy(b *testing.B) {
	st := benchForkState(8, 16, 32)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if legacyFork(st) == nil {
			b.Fatal("nil fork")
		}
	}
}

// BenchmarkForkCoW is the copy-on-write fork on the same state (only the
// top frame is copied eagerly).
func BenchmarkForkCoW(b *testing.B) {
	st := benchForkState(8, 16, 32)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if st.fork() == nil {
			b.Fatal("nil fork")
		}
	}
}

// BenchmarkForkCoWThenTouch forks and immediately performs the typical
// post-fork writes (append a constraint, mutate the top frame), charging
// the copy-on-write costs a real fork incurs on its first step.
func BenchmarkForkCoWThenTouch(b *testing.B) {
	st := benchForkState(8, 16, 32)
	tbl := solver.NewVarTable()
	v := tbl.NewVarBounded("w", 0, 255)
	c := solver.Ge(solver.VarExpr(v), solver.ConstExpr(1))
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		child := st.fork()
		child.appendConstraint(c)
		child.Top().Locals[0] = IntVal(int64(n))
	}
}

// branchCheckState builds a state whose path condition has 1,000
// constraints in 500 two-variable components — the shape of a guided
// thttpd path condition — with a model that satisfies it, through the
// executor's own query and commit.
func branchCheckState(b *testing.B) (*Executor, *State, []solver.Var) {
	b.Helper()
	tbl := solver.NewVarTable()
	ex := &Executor{Table: tbl, Solver: solver.NewCached(solver.New())}
	st := &State{}
	vars := make([]solver.Var, 0, 1000)
	for i := 0; i < 500; i++ {
		a := tbl.NewVarBounded("a", 0, 255)
		c := tbl.NewVarBounded("c", 0, 255)
		vars = append(vars, a, c)
		addPathConstraint(st, solver.Le(solver.VarExpr(a).Add(solver.VarExpr(c)), solver.ConstExpr(300)))
		addPathConstraint(st, solver.Ne(solver.VarExpr(a), solver.VarExpr(c)))
	}
	ok, m := ex.satisfiable(st)
	if !ok || m == nil {
		b.Fatal("path condition unsatisfiable")
	}
	ex.commit(st, m)
	return ex, st, vars
}

// BenchmarkBranchCheckLongPC measures one satisfiability check on a long
// path condition. model-hit: the branch condition holds under the cached
// model, so the check ends at the model shortcut. solver: it does not, so
// the check runs the component query for the one component it touches (a
// cache hit after the first iteration).
func BenchmarkBranchCheckLongPC(b *testing.B) {
	b.Run("model-hit", func(b *testing.B) {
		ex, st, vars := branchCheckState(b)
		c := solver.Le(solver.VarExpr(vars[0]), solver.ConstExpr(st.LastModel[vars[0]]))
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if ok, _ := ex.satisfiable(st, c); !ok {
				b.Fatal("unsat")
			}
		}
	})
	b.Run("solver", func(b *testing.B) {
		ex, st, vars := branchCheckState(b)
		c := solver.Ne(solver.VarExpr(vars[0]), solver.ConstExpr(st.LastModel[vars[0]]))
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if ok, _ := ex.satisfiable(st, c); !ok {
				b.Fatal("unsat")
			}
		}
	})
}
