package symexec_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/solver"
	"repro/internal/symexec"
	"repro/internal/workload"
)

// componentApps are the five applications every byte-identity contract
// runs on.
var componentApps = []string{"polymorph", "ctree", "thttpd", "grep", "msgtool"}

// componentOracle checks the in-state component structure at a branch
// check against from-scratch recomputation: the components equal
// solver.Partition of the path condition in content and order, their
// digests add up to the rolling path-condition digest, and the incremental
// model check agrees with evaluating every constraint.
type componentOracle struct {
	checks   atomic.Int64
	maxPC    atomic.Int64
	problems atomic.Int64
	first    sync.Once
	msg      atomic.Value
}

func (o *componentOracle) fail(format string, args ...any) {
	o.problems.Add(1)
	o.first.Do(func() { o.msg.Store(fmt.Sprintf(format, args...)) })
}

func (o *componentOracle) observe(st *symexec.State, _ []solver.Constraint) {
	o.checks.Add(1)
	for n := int64(len(st.Constraints)); ; {
		if m := o.maxPC.Load(); n <= m || o.maxPC.CompareAndSwap(m, n) {
			break
		}
	}
	got, digests := st.Components()
	want := solver.Partition(st.Constraints)
	if len(got) != len(want) {
		o.fail("%d components, Partition has %d", len(got), len(want))
		return
	}
	var sum solver.Digest
	for i := range want {
		if len(got[i]) != len(want[i]) {
			o.fail("component %d has %d constraints, Partition %d", i, len(got[i]), len(want[i]))
			return
		}
		for j := range want[i] {
			if solver.HashConstraint(got[i][j]) != solver.HashConstraint(want[i][j]) {
				o.fail("component %d constraint %d differs from Partition", i, j)
				return
			}
		}
		if d := solver.DigestOf(got[i]); digests[i] != d {
			o.fail("component %d digest %+v, recomputed %+v", i, digests[i], d)
		}
		sum = solver.Digest{Sum: sum.Sum + digests[i].Sum, N: sum.N + digests[i].N}
	}
	if sum != st.PCDigest() {
		o.fail("component digests sum to %+v, PCDigest %+v", sum, st.PCDigest())
	}
	if st.LastModel != nil {
		full := true
		for _, c := range st.Constraints {
			if !c.Holds(st.LastModel) {
				full = false
				break
			}
		}
		if inc := st.IncrementalHolds(); inc != full {
			o.fail("incremental model check %v, full evaluation %v", inc, full)
		}
	}
}

func (o *componentOracle) report(t *testing.T, label string) {
	t.Helper()
	if o.checks.Load() == 0 {
		t.Errorf("%s: no branch checks observed", label)
	}
	if n := o.problems.Load(); n > 0 {
		t.Errorf("%s: %d problems in %d branch checks; first: %s", label, n, o.checks.Load(), o.msg.Load())
	}
}

func componentOpts(t *testing.T, app *apps.App, workers int, mode string, steps int64) symexec.Options {
	t.Helper()
	opts := symexec.DefaultOptions()
	opts.StopAtFirstVuln = false
	opts.MaxSteps = steps
	opts.Workers = workers
	// Depth-first search grows long path conditions within the budget.
	opts.Sched = symexec.NewDFS()
	calls, err := symexec.NewCallStrategy(app.Program(), mode, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts.Calls = calls
	return opts
}

// TestComponentOracle runs the oracle at every branch check of bounded
// explorations of the five apps, sequentially and on the epoch engine, with
// interpreted and summarized calls, and again after a checkpoint round trip
// (decoded states rebuild their components from the constraints alone).
func TestComponentOracle(t *testing.T) {
	steps := int64(20_000)
	if testing.Short() {
		steps = 4_000
	}
	for _, name := range componentApps {
		app, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 4} {
			for _, mode := range []string{symexec.CallInterpret, symexec.CallSummarize} {
				label := fmt.Sprintf("%s/workers=%d/%s", name, workers, mode)
				o := &componentOracle{}
				restore := symexec.SetBranchCheckHook(o.observe)
				res := symexec.New(app.Program(), app.Spec, componentOpts(t, app, workers, mode, steps)).Run()
				restore()
				o.report(t, label)
				t.Logf("%s: %d steps, %d branch checks, longest path condition %d", label, res.Steps, o.checks.Load(), o.maxPC.Load())
			}
		}
		// Checkpoint round trip: stop halfway through the bounded run,
		// resume from the blob with the oracle watching.
		label := name + "/resumed"
		full := symexec.New(app.Program(), app.Spec, componentOpts(t, app, 0, symexec.CallInterpret, steps)).Run()
		ex := symexec.New(app.Program(), app.Spec, componentOpts(t, app, 0, symexec.CallInterpret, full.Steps/2))
		ex.Run()
		blob, err := ex.EncodeCheckpoint()
		if err != nil {
			t.Fatalf("%s: EncodeCheckpoint: %v", label, err)
		}
		resumed, err := symexec.ResumeExecutor(blob, componentOpts(t, app, 0, symexec.CallInterpret, steps))
		if err != nil {
			t.Fatalf("%s: ResumeExecutor: %v", label, err)
		}
		o := &componentOracle{}
		restore := symexec.SetBranchCheckHook(o.observe)
		resumed.Run()
		restore()
		o.report(t, label)
	}
}

// TestComponentOracleGuided runs the oracle through guided candidate
// verification of thttpd (seed-1 corpus, 30% sampling, 100+100 runs), the
// workload whose path conditions reach about a thousand constraints in
// hundreds of components, on both engines.
func TestComponentOracleGuided(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("guided pipeline run: slow under -short and -race (the epoch-engine runs of TestComponentOracle cover concurrency)")
	}
	app, err := apps.Get("thttpd")
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpusCtx(context.Background(), app, workload.Options{SampleRate: 0.3, Seed: 1, Correct: 100, Faulty: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		o := &componentOracle{}
		restore := symexec.SetBranchCheckHook(o.observe)
		rep, err := core.RunContext(context.Background(), app.Program(), corpus, core.Config{Spec: app.Spec, Workers: workers, PerCandidateMaxSteps: 50_000})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("thttpd-guided/workers=%d", workers)
		o.report(t, label)
		t.Logf("%s: %d steps, %d branch checks, longest path condition %d", label, rep.TotalSteps, o.checks.Load(), o.maxPC.Load())
	}
}

// TestComponentForkCompactionStress forks a state with a shared component
// index into many siblings that append, compact and fork again
// concurrently; run under -race it checks the copy-on-write discipline, and
// afterwards every state's components must still match Partition.
func TestComponentForkCompactionStress(t *testing.T) {
	tbl := solver.NewVarTable()
	vars := make([]solver.Var, 24)
	for i := range vars {
		vars[i] = tbl.NewVarBounded("v", 0, 255)
	}
	root := &symexec.State{Frames: []*symexec.Frame{{Fn: &bytecode.Fn{Name: "f"}}}}
	for i, v := range vars {
		root.AddPathConstraint(solver.Ge(solver.VarExpr(v), solver.ConstExpr(int64(i%5))))
		if i%3 == 0 && i > 0 {
			root.AddPathConstraint(solver.Le(solver.VarExpr(v).Add(solver.VarExpr(vars[i-1])), solver.ConstExpr(400)))
		}
	}
	const siblings = 8
	var wg sync.WaitGroup
	results := make([][]*symexec.State, siblings)
	kids := make([]*symexec.State, siblings)
	for w := range kids {
		kids[w] = root.Fork()
	}
	for w := 0; w < siblings; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := kids[w]
			out := []*symexec.State{st}
			for i := 0; i < 60; i++ {
				v := vars[(w*7+i)%len(vars)]
				u := vars[(w*3+i*5)%len(vars)]
				switch i % 4 {
				case 0: // tighter lower bound: compacts in place
					st.AddPathConstraint(solver.Ge(solver.VarExpr(v), solver.ConstExpr(int64(5+i/4))))
				case 1: // links two components
					st.AddPathConstraint(solver.Le(solver.VarExpr(v).Add(solver.VarExpr(u)), solver.ConstExpr(int64(500-i))))
				case 2: // fresh upper bound
					st.AddPathConstraint(solver.Le(solver.VarExpr(v), solver.ConstExpr(int64(250-i))))
				default:
					child := st.Fork()
					out = append(out, child)
					child.AddPathConstraint(solver.Ne(solver.VarExpr(u), solver.ConstExpr(int64(i))))
				}
			}
			results[w] = out
		}(w)
	}
	// The root keeps writing while its children run.
	for i := 0; i < 40; i++ {
		root.AddPathConstraint(solver.Ge(solver.VarExpr(vars[i%len(vars)]), solver.ConstExpr(int64(10+i))))
	}
	wg.Wait()
	o := &componentOracle{}
	o.observe(root, nil)
	for _, states := range results {
		for _, st := range states {
			o.observe(st, nil)
		}
	}
	o.report(t, "stress")
}
