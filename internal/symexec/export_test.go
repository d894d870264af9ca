package symexec

import "repro/internal/solver"

// SetBranchCheckHook installs f as the branch-check observer for the
// external test package and returns a function restoring the previous one.
// f runs on worker goroutines under the epoch engine.
func SetBranchCheckHook(f func(st *State, extra []solver.Constraint)) (restore func()) {
	prev := branchCheckHook
	branchCheckHook = func(_ *Executor, st *State, extra []solver.Constraint) { f(st, extra) }
	return func() { branchCheckHook = prev }
}

// Components returns the state's components ordered by their first
// constraint, each listing its constraints in path-condition order (the
// shape solver.Partition returns), with each component's digest.
func (st *State) Components() ([][]solver.Constraint, []solver.Digest) {
	type comp struct {
		first  int32
		cons   []solver.Constraint
		digest solver.Digest
	}
	var comps []comp
	st.pc.roots(func(r int32, c *pcComp) {
		cc := comp{first: c.idx[0], digest: c.digest}
		for _, i := range c.idx {
			cc.cons = append(cc.cons, st.Constraints[i])
		}
		comps = append(comps, cc)
	})
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j].first < comps[j-1].first; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	out := make([][]solver.Constraint, len(comps))
	ds := make([]solver.Digest, len(comps))
	for i, c := range comps {
		out[i], ds[i] = c.cons, c.digest
	}
	return out, ds
}

// IncrementalHolds is the executor's model check of the path condition
// under LastModel: only components not known to hold are evaluated.
func (st *State) IncrementalHolds() bool { return st.pcHoldsUnder(st.LastModel) }

// Fork exposes the copy-on-write fork.
func (st *State) Fork() *State { return st.fork() }

// AddPathConstraint exposes the executor's append-with-compaction.
func (st *State) AddPathConstraint(c solver.Constraint) { addPathConstraint(st, c) }
