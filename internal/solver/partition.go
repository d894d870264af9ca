package solver

// Partition splits a conjunction into independent components: two
// constraints belong to the same component iff they (transitively) share a
// variable. Since components are variable-disjoint, the conjunction is
// satisfiable iff every component is, and a model is the union of the
// component models — KLEE's "independent constraint" optimization.
// Constant-only constraints are gathered into a single component.
//
// The symbolic executor keeps these components inside each state,
// maintained as constraints are appended (symexec/components.go); this
// from-scratch computation is the oracle its tests compare against.
//
// The result preserves determinism: components are ordered by the first
// constraint index they contain, and constraints keep their relative
// order within a component.
func Partition(cons []Constraint) [][]Constraint {
	if len(cons) <= 1 {
		if len(cons) == 0 {
			return nil
		}
		return [][]Constraint{cons}
	}
	// Union-find over constraint indices, linking through variables.
	parent := make([]int, len(cons))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	varOwner := make(map[Var]int)
	groundIdx := -1
	for i, c := range cons {
		if len(c.E.Terms) == 0 {
			if groundIdx == -1 {
				groundIdx = i
			} else {
				union(groundIdx, i)
			}
			continue
		}
		for _, tm := range c.E.Terms {
			if owner, ok := varOwner[tm.Var]; ok {
				union(owner, i)
			} else {
				varOwner[tm.Var] = i
			}
		}
	}
	groups := make(map[int][]Constraint)
	order := make([]int, 0, 8)
	for i, c := range cons {
		root := find(i)
		if _, seen := groups[root]; !seen {
			order = append(order, root)
		}
		groups[root] = append(groups[root], c)
	}
	out := make([][]Constraint, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out
}
