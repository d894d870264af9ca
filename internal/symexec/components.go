package symexec

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/solver"
)

// This file keeps the path condition's independent components inside the
// state — KLEE's constraint-independence optimization, maintained as each
// constraint is appended instead of re-derived on every query.
//
// Two constraints belong to the same component iff they (transitively)
// share a variable; constant-only constraints form one component of their
// own. Components are exactly what solver.Partition computes from
// st.Constraints (same members, same order), but here they are updated
// incrementally, so a branch check hashes, looks up and solves only the
// component its new constraints touch.
//
// Layout. A variable index maps each variable of the path condition to a
// union-find slot; a slot's root carries the component: the PC indices of
// its constraints (ascending, i.e. path-condition order), its rolling
// digest, and the model last decided for exactly those constraints by a
// solver cache. Merging two components links the smaller root under the
// larger (union by size), so finds stay logarithmic without path
// compression and no variable entry is ever rewritten.
//
// Sharing. Like the buffer heap, everything is copy-on-write behind an
// ownership token: fork shares the index and drops both sides' tokens, and
// a write copies the top level, then only the bucket, slot chunk and
// component it touches. Shared pieces are never written, so siblings can
// step concurrently under the epoch engine.

// pcTok is the ownership token of one state's writable index pieces. It
// carries a byte so distinct tokens never share an address.
type pcTok struct{ _ byte }

const (
	pcBucketBits = 6
	pcBuckets    = 1 << pcBucketBits
	pcSlotShift  = 5
	pcSlotChunk  = 1 << pcSlotShift
	pcSlotMask   = pcSlotChunk - 1
)

// groundVar keys constant-only constraints in the variable index:
// solver.Partition gathers them into a single component.
const groundVar = solver.NoVar

// varEnt is one variable of the path condition: its union-find slot and
// the interval its single-variable constraints imply.
type varEnt struct {
	v    solver.Var
	slot int32
	b    VarBounds
}

// varBucket holds the entries of one hash bucket, sorted by variable.
type varBucket struct {
	owner *pcTok
	ents  []varEnt
}

// slotEnt is a union-find node; comp is set on roots only.
type slotEnt struct {
	parent int32
	comp   *pcComp
}

type slotChunk struct {
	owner *pcTok
	s     [pcSlotChunk]slotEnt
}

// pcComp is one independent component of the path condition.
type pcComp struct {
	owner *pcTok
	// idx lists the component's constraints as ascending indices into
	// st.Constraints. Shared copies are capacity-clamped, so an append
	// never writes into another state's view.
	idx    []int32
	digest solver.Digest
	// model is the verdict model a solver cache returned for exactly this
	// conjunction (in this order), and cache is that cache; nil model means
	// no such decision is recorded (the component changed since, or was
	// never decided on its own). A recorded model is what a lookup in the
	// same cache would return, so a query skips the lookup.
	model solver.Model
	cache *solver.CachedSolver
}

// pcIndex is the component structure of one path condition.
type pcIndex struct {
	tok    *pcTok
	vars   [pcBuckets]*varBucket
	slots  []*slotChunk
	nslots int32
	ncomps int32
}

// pcMeta is the per-state bookkeeping around the shared index. Its slices
// hold slot numbers (resolved through find when read) and are copied
// capacity-clamped at fork.
type pcMeta struct {
	// dirty lists slots whose component may lack a model recorded from
	// cache; every other component has one.
	dirty []int32
	// unheld lists slots whose component may not hold under LastModel;
	// every other component does. unheldAll widens that to all of them.
	unheld    []int32
	unheldAll bool
	// cache is set when every recorded component model in the state was
	// decided by this solver cache; a query on any other cache first
	// looks every component up again (as the state would be new to it).
	cache *solver.CachedSolver
	// exact is set when LastModel binds only path-condition variables and
	// agrees with every recorded component model except those listed in
	// stale (recorded by queries whose verdict was not installed). A query
	// then assembles its model from a copy of LastModel.
	exact bool
	stale []int32
	// pending holds verdicts satisfiable returned on the current path
	// condition, so commit can record their component models.
	pending []pendingVerdict
}

// pendingVerdict is one satisfiable result waiting for its commit.
type pendingVerdict struct {
	model  solver.Model // the returned model (matched by identity)
	extras solver.Digest
	// full marks a component query: model satisfies the whole path
	// condition plus the extras. Otherwise it came from a disjoint solve
	// and agrees with LastModel on every path-condition variable.
	full   bool
	groups []pendingGroup
	cache  *solver.CachedSolver
	// stale is len(pcMeta.stale) when the verdict was returned: the
	// entries before it are part of model.
	stale int
}

// pendingGroup is the decided model of one component the extras will form
// once committed; key is one of its variables.
type pendingGroup struct {
	key    solver.Var
	digest solver.Digest
	model  solver.Model
}

// maxPending bounds the verdicts remembered between commits.
const maxPending = 8

// maxUnheld bounds the unheld list before it widens to unheldAll.
const maxUnheld = 64

// maxStale bounds the stale list before LastModel stops counting as exact.
const maxStale = 1024

func bucketOf(v solver.Var) int {
	return int((uint32(v) * 0x9E3779B1) >> (32 - pcBucketBits))
}

// lookup returns v's entry, or nil when the path condition does not
// mention v. The entry must not be written.
func (p *pcIndex) lookup(v solver.Var) *varEnt {
	if p == nil {
		return nil
	}
	bk := p.vars[bucketOf(v)]
	if bk == nil {
		return nil
	}
	ents := bk.ents
	i := sort.Search(len(ents), func(i int) bool { return ents[i].v >= v })
	if i < len(ents) && ents[i].v == v {
		return &ents[i]
	}
	return nil
}

func (p *pcIndex) slot(s int32) *slotEnt { return &p.slots[s>>pcSlotShift].s[s&pcSlotMask] }

// find returns the root slot of s.
func (p *pcIndex) find(s int32) int32 {
	for {
		e := p.slot(s)
		if e.parent == s {
			return s
		}
		s = e.parent
	}
}

// rootOf returns the root slot of v's component, or -1.
func (p *pcIndex) rootOf(v solver.Var) int32 {
	if e := p.lookup(v); e != nil {
		return p.find(e.slot)
	}
	return -1
}

// comp returns the component rooted at r.
func (p *pcIndex) comp(r int32) *pcComp { return p.slot(r).comp }

// constraintKey returns the index key of c's first variable (groundVar for
// constant-only constraints).
func constraintKey(c solver.Constraint) solver.Var {
	if len(c.E.Terms) == 0 {
		return groundVar
	}
	return c.E.Terms[0].Var
}

// pcw returns the state's index ready for writing, copying the top level
// first when it is shared with a forked relative.
func (st *State) pcw() *pcIndex {
	p := st.pc
	switch {
	case p == nil:
		p = &pcIndex{tok: new(pcTok)}
		st.pc = p
	case st.pcShared:
		np := *p
		np.tok = new(pcTok)
		np.slots = append([]*slotChunk(nil), p.slots...)
		p = &np
		st.pc = p
	}
	st.pcShared = false
	return p
}

// slotw returns slot s for writing.
func (p *pcIndex) slotw(s int32) *slotEnt {
	ci := s >> pcSlotShift
	ch := p.slots[ci]
	if ch.owner != p.tok {
		ch = &slotChunk{owner: p.tok, s: ch.s}
		p.slots[ci] = ch
	}
	return &ch.s[s&pcSlotMask]
}

// compw returns the component rooted at r for writing.
func (p *pcIndex) compw(r int32) *pcComp {
	e := p.slotw(r)
	c := e.comp
	if c.owner != p.tok {
		c = &pcComp{owner: p.tok, idx: c.idx[:len(c.idx):len(c.idx)], digest: c.digest, model: c.model, cache: c.cache}
		e.comp = c
	}
	return c
}

// newSlot allocates a root slot holding c.
func (p *pcIndex) newSlot(c *pcComp) int32 {
	s := p.nslots
	if int(s>>pcSlotShift) == len(p.slots) {
		p.slots = append(p.slots, &slotChunk{owner: p.tok})
	}
	p.nslots++
	e := p.slotw(s)
	e.parent, e.comp = s, c
	return s
}

// entw returns v's entry for writing, inserting it (in slot s) if absent.
func (p *pcIndex) entw(v solver.Var, s int32) *varEnt {
	b := bucketOf(v)
	bk := p.vars[b]
	switch {
	case bk == nil:
		bk = &varBucket{owner: p.tok}
		p.vars[b] = bk
	case bk.owner != p.tok:
		nb := &varBucket{owner: p.tok, ents: make([]varEnt, len(bk.ents), len(bk.ents)+1)}
		copy(nb.ents, bk.ents)
		bk = nb
		p.vars[b] = bk
	}
	ents := bk.ents
	i := sort.Search(len(ents), func(i int) bool { return ents[i].v >= v })
	if i < len(ents) && ents[i].v == v {
		return &ents[i]
	}
	ents = append(ents, varEnt{})
	copy(ents[i+1:], ents[i:])
	ents[i] = varEnt{v: v, slot: s}
	bk.ents = ents
	return &ents[i]
}

// mergeIdx merges two ascending index lists, leaving room for one append.
func mergeIdx(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b)+1)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// add registers constraint n (hash h) of the path condition: it joins the
// component of its variables, merging the components it connects, and
// single-variable forms tighten their variable's bounds. It returns the
// component's root slot.
func (p *pcIndex) add(c solver.Constraint, n int32, h uint64) int32 {
	keys := c.E.Terms
	var roots [4]int32
	rs := roots[:0]
	note := func(v solver.Var) {
		if r := p.rootOf(v); r >= 0 {
			for _, x := range rs {
				if x == r {
					return
				}
			}
			rs = append(rs, r)
		}
	}
	if len(keys) == 0 {
		note(groundVar)
	}
	for _, tm := range keys {
		note(tm.Var)
	}
	var target int32
	if len(rs) == 0 {
		target = p.newSlot(&pcComp{owner: p.tok, idx: []int32{n}, digest: solver.Digest{}.Add(h)})
		p.ncomps++
	} else {
		p.ncomps -= int32(len(rs) - 1)
		// Union by size: the largest component's root survives.
		target = rs[0]
		for _, r := range rs[1:] {
			if len(p.comp(r).idx) > len(p.comp(target).idx) {
				target = r
			}
		}
		tc := p.compw(target)
		for _, r := range rs {
			if r == target {
				continue
			}
			oc := p.comp(r)
			tc.idx = mergeIdx(tc.idx, oc.idx)
			tc.digest = solver.Digest{Sum: tc.digest.Sum + oc.digest.Sum, N: tc.digest.N + oc.digest.N}
			e := p.slotw(r)
			e.parent, e.comp = target, nil
		}
		tc.idx = append(tc.idx, n)
		tc.digest = tc.digest.Add(h)
		tc.model, tc.cache = nil, nil
	}
	if len(keys) == 0 {
		p.entw(groundVar, target)
	}
	for _, tm := range keys {
		e := p.entw(tm.Var, target)
		if len(keys) == 1 {
			e.b = e.b.tighten(c, tm.Coeff)
		}
	}
	return target
}

// replace swaps old for c (both single-variable forms over v) in v's
// component, returning its root slot.
func (p *pcIndex) replace(v solver.Var, old, c solver.Constraint) int32 {
	r := p.rootOf(v)
	tc := p.compw(r)
	tc.digest = tc.digest.Remove(solver.HashConstraint(old)).Add(solver.HashConstraint(c))
	tc.model, tc.cache = nil, nil
	return r
}

// noteBound tightens the bounds of v, which the path condition mentions,
// by the single-variable constraint c.
func (p *pcIndex) noteBound(v solver.Var, coeff int64, c solver.Constraint) {
	e := p.entw(v, -1)
	e.b = e.b.tighten(c, coeff)
}

// tighten returns b narrowed by the single-variable constraint c (with
// coefficient coeff); other forms leave it unchanged.
func (b VarBounds) tighten(c solver.Constraint, coeff int64) VarBounds {
	switch {
	case c.Op == solver.OpLe && coeff == 1: // v <= -Const
		k := -c.E.Const
		if !b.HasHi || k < b.Hi {
			b.Hi, b.HasHi = k, true
		}
	case c.Op == solver.OpLe && coeff == -1: // v >= Const
		k := c.E.Const
		if !b.HasLo || k > b.Lo {
			b.Lo, b.HasLo = k, true
		}
	case c.Op == solver.OpEq && (coeff == 1 || coeff == -1):
		k := -c.E.Const
		if coeff == -1 {
			k = c.E.Const
		}
		if !b.HasLo || k > b.Lo {
			b.Lo, b.HasLo = k, true
		}
		if !b.HasHi || k < b.Hi {
			b.Hi, b.HasHi = k, true
		}
	}
	return b
}

// roots calls f for every component root, in slot order.
func (p *pcIndex) roots(f func(r int32, c *pcComp)) {
	if p == nil {
		return
	}
	for s := int32(0); s < p.nslots; s++ {
		if e := p.slot(s); e.parent == s && e.comp != nil {
			f(s, e.comp)
		}
	}
}

// --- per-state bookkeeping ---

// markDirty records that root r's component lost its recorded model.
func (st *State) markDirty(r int32) {
	d := st.meta.dirty
	if n := len(d); n > 0 && d[n-1] == r {
		return
	}
	st.meta.dirty = append(d, r)
}

// markUnheld records that root r's component may not hold under LastModel.
func (st *State) markUnheld(r int32) {
	if st.meta.unheldAll || r < 0 {
		return
	}
	u := st.meta.unheld
	if n := len(u); n > 0 && u[n-1] == r {
		return
	}
	if len(u) >= maxUnheld {
		st.meta.unheld, st.meta.unheldAll = nil, true
		return
	}
	st.meta.unheld = append(u, r)
}

// markUnheldVar marks the component mentioning v (if any) unheld: a model
// change at v can only affect constraints over v.
func (st *State) markUnheldVar(v solver.Var) {
	st.markUnheld(st.pc.rootOf(v))
}

// compHolds reports whether every constraint of root r's component holds
// under m.
func (st *State) compHolds(r int32, m solver.Model) bool {
	for _, i := range st.pc.comp(r).idx {
		if !st.Constraints[i].Holds(m) {
			return false
		}
	}
	return true
}

// pcHoldsUnder reports whether the path condition holds under m, which
// must be LastModel: only components not known to hold are evaluated.
func (st *State) pcHoldsUnder(m solver.Model) bool {
	if st.meta.unheldAll {
		return allHold(st.Constraints, m)
	}
	for i, s := range st.meta.unheld {
		r := st.pc.find(s)
		seen := false
		for _, t := range st.meta.unheld[:i] {
			if st.pc.find(t) == r {
				seen = true
				break
			}
		}
		if !seen && !st.compHolds(r, m) {
			return false
		}
	}
	return true
}

// pcHolds is pcHoldsUnder(LastModel), remembering a success.
func (st *State) pcHolds() bool {
	if !st.pcHoldsUnder(st.LastModel) {
		return false
	}
	st.meta.unheld, st.meta.unheldAll = nil, false
	return true
}

// setModel installs m as LastModel after a verdict. A known verdict (the
// pending record satisfiable left for it) tells which components hold
// under m: a component query's model satisfies the whole path condition,
// and a disjoint solve's agrees with the old model on every
// path-condition variable. An unknown model makes every component unheld.
func (st *State) setModel(m solver.Model, p *pendingVerdict) {
	st.LastModel = m
	st.meta.pending = nil
	switch {
	case p == nil:
		st.meta.unheld, st.meta.unheldAll = nil, true
		st.meta.exact, st.meta.stale = false, nil
	case p.full:
		st.meta.unheld, st.meta.unheldAll = nil, false
		st.meta.exact = true
		if p.stale <= len(st.meta.stale) {
			st.meta.stale = st.meta.stale[p.stale:]
		} else {
			st.meta.stale = nil
		}
	}
}

// changeModel installs nm, which differs from LastModel only at vars.
func (st *State) changeModel(nm solver.Model, vars ...solver.Var) {
	st.LastModel = nm
	st.meta.pending = nil
	st.meta.exact, st.meta.stale = false, nil
	for _, v := range vars {
		st.markUnheldVar(v)
	}
}

// markStale records that root r's component recorded a model LastModel
// may disagree with.
func (st *State) markStale(r int32) {
	if len(st.meta.stale) >= maxStale {
		st.meta.exact, st.meta.stale, st.meta.pending = false, nil, nil
		return
	}
	st.meta.stale = append(st.meta.stale, r)
}

// notePending remembers a verdict satisfiable is about to return.
func (st *State) notePending(p pendingVerdict) {
	if len(st.meta.pending) >= maxPending {
		st.meta.pending = st.meta.pending[1:]
	}
	st.meta.pending = append(st.meta.pending, p)
}

// takePending returns the pending verdict that returned model m for the
// extras cons, or nil.
func (st *State) takePending(m solver.Model, cons []solver.Constraint) *pendingVerdict {
	if len(st.meta.pending) == 0 {
		return nil
	}
	d := solver.DigestOf(cons)
	for i := range st.meta.pending {
		p := &st.meta.pending[i]
		if p.extras == d && sameModel(p.model, m) {
			return p
		}
	}
	return nil
}

// recordModels stores the component models of a committed verdict: each
// group of extras now forms (or joined) one component, whose conjunction
// is exactly what the verdict decided unless compaction changed it.
func (st *State) recordModels(p *pendingVerdict) {
	if p.cache != st.meta.cache {
		return
	}
	for _, g := range p.groups {
		r := st.pc.rootOf(g.key)
		if r < 0 || st.pc.comp(r).digest != g.digest {
			continue
		}
		c := st.pcw().compw(r)
		c.model, c.cache = g.model, p.cache
	}
}

// clone returns a copy for a forked child; slices are capacity-clamped so
// neither side's appends reach the other's view.
func (m pcMeta) clone() pcMeta {
	m.dirty = m.dirty[:len(m.dirty):len(m.dirty)]
	m.unheld = m.unheld[:len(m.unheld):len(m.unheld)]
	m.stale = m.stale[:len(m.stale):len(m.stale)]
	m.pending = m.pending[:len(m.pending):len(m.pending)]
	return m
}

// pruneDirty rewrites the dirty list after a component query, keeping each
// component that still lacks a model from the state's cache once: the
// unreached ones after a refutation, the ones the extras touched (no lookup
// decided them on their own) and those whose lookup was not Sat. After a
// full scan the list is rebuilt from every component.
func (st *State) pruneDirty(fullScan bool) {
	p := st.pc
	if p == nil {
		return
	}
	var keep []int32
	dirty := func(r int32, c *pcComp) {
		if c.model == nil || c.cache != st.meta.cache {
			keep = append(keep, r)
		}
	}
	if fullScan {
		p.roots(dirty)
		st.meta.dirty = keep
		return
	}
	for _, s := range st.meta.dirty {
		r := p.find(s)
		dirty(r, p.comp(r))
	}
	slices.Sort(keep)
	st.meta.dirty = slices.Compact(keep)
}

// unionModel assembles the model of a satisfiable component query: the
// group models plus every other component's recorded model (or, when the
// query could not record them, the models it looked up).
func (st *State) unionModel(items []queryItem, groups []extraGroup, recorded bool) solver.Model {
	p := st.pc
	ncomps := len(groups)
	if p != nil {
		ncomps += int(p.ncomps)
	}
	for _, g := range groups {
		ncomps -= len(g.roots)
	}
	if ncomps == 1 && len(items) == 1 {
		return items[0].model
	}
	inGroup := func(r int32) bool {
		for _, g := range groups {
			for _, x := range g.roots {
				if x == r {
					return true
				}
			}
		}
		return false
	}
	var model solver.Model
	merge := func(m solver.Model) {
		for k, v := range m {
			model[k] = v
		}
	}
	if st.LastModel != nil && st.meta.exact && recorded {
		// LastModel already holds every other component's model: patch in
		// the stale ones (this query's lookups among them) and the groups.
		model = maps.Clone(st.LastModel)
		for _, s := range st.meta.stale {
			if r := p.find(s); !inGroup(r) {
				merge(p.comp(r).model)
			}
		}
		for _, it := range items {
			if it.group >= 0 {
				merge(it.model)
			}
		}
		return model
	}
	model = make(solver.Model, max(len(st.LastModel), 8))
	for _, it := range items {
		if it.group >= 0 || !recorded {
			merge(it.model)
		}
	}
	p.roots(func(r int32, c *pcComp) {
		if inGroup(r) {
			return
		}
		if !recorded {
			for _, it := range items {
				if it.root == r {
					return
				}
			}
		}
		merge(c.model)
	})
	return model
}
