package symexec

import (
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/solver"
	"repro/internal/trace"
)

// StateStatus is a state's lifecycle phase.
type StateStatus int

// State statuses.
const (
	StatusActive StateStatus = iota + 1
	StatusSuspended
	StatusTerminated
	StatusFaulted
	StatusInfeasible
	// StatusDepthExhausted marks a path cut off by the MaxDepth call-stack
	// bound — a resource limit, not a normal exit, so reports and metrics
	// can tell truncated coverage from genuine termination.
	StatusDepthExhausted
)

// Frame is one activation record of the symbolic machine.
//
// Frames are shared between a state and its forked children copy-on-write:
// refs counts the extra states referencing the frame (0 = exclusively
// owned). The executor maintains the invariant that a state's top frame is
// always exclusively owned — every step mutates it (PC, operand stack) —
// so only frames buried under a call are ever shared, and they are
// privatized when a return exposes them (see State.ensureTopOwned).
//
// refs is atomic because under parallel frontier execution two states
// sharing a buried frame can fork (increment) and return (decrement-and-
// copy) concurrently on different workers.
type Frame struct {
	Fn     *bytecode.Fn
	PC     int
	Locals []Value
	Stack  []Value

	refs atomic.Int32
}

// ownedCopy returns a private copy of the frame. Values are immutable
// (buffer cells live in the state heap), so slice copies suffice.
func (f *Frame) ownedCopy() *Frame {
	nf := &Frame{Fn: f.Fn, PC: f.PC}
	nf.Locals = append([]Value(nil), f.Locals...)
	nf.Stack = append([]Value(nil), f.Stack...)
	return nf
}

// State is one symbolic execution path in progress — the unit KLEE
// schedules. It owns a call stack, a snapshot of globals, the path
// condition, the trace of instrumentation locations it has crossed, and
// the guidance bookkeeping used by StatSym's state manager (candidate-path
// progress and diverted hops, §VI-C).
//
// Forking is copy-on-write throughout: frames below the top are shared
// with a reference count, globals / buffer heaps / path-condition
// bookkeeping are shared behind dirty flags and copied on first write, and
// the constraint and trace slices share their backing array with the child
// holding a capacity-clamped view (only the parent, whose capacity extends
// past the shared prefix, may append in place; children reallocate).
type State struct {
	ID     int
	Status StateStatus

	Frames  []*Frame
	Globals []Value

	// Constraints is the path condition (a conjunction). It grows by
	// appending; the only in-place mutation is single-variable bound
	// compaction, which must respect consShared.
	Constraints []solver.Constraint

	// Trace is the sequence of function entry/exit locations crossed.
	Trace []trace.Location

	// Depth counts branch decisions taken; Forks counts forks performed
	// at this state (for statistics).
	Depth int

	// Guidance bookkeeping (maintained by the core guidance hook):
	// PathIndex is the index of the next candidate-path node expected,
	// Diverted is the number of hops off the candidate path, and Revived
	// marks a state resumed from the suspended pool (guidance then leaves
	// it alone so the search degenerates gracefully to pure symbolic
	// execution, as the paper's footnote 1 requires).
	PathIndex int
	Diverted  int
	Revived   bool

	// LastModel caches a satisfying assignment for Constraints. It lets
	// the executor skip solver calls when a new branch condition already
	// holds under the cached model (the standard KLEE fast path). The map
	// is shared across forks and never mutated in place.
	LastModel solver.Model

	// pc holds the path condition's independent components, its variable
	// index and the per-variable bounds (components.go). It powers the
	// incremental satisfiability shortcuts: a query looks up only the
	// components its constraints touch, constraints over variables disjoint
	// from the path condition are solved in isolation, and single-variable
	// contradictions refute in O(1). Shared with forked relatives until
	// first write (pcShared); meta is this state's bookkeeping around it.
	pc       *pcIndex
	pcShared bool
	meta     pcMeta

	// pcDigest is the rolling order-insensitive digest of Constraints,
	// maintained incrementally so solver queries never re-hash the whole
	// path condition.
	pcDigest solver.Digest

	// heap maps buffer identities to their cell storage. Forks share the
	// map (heapShared) and replace the ownership token (heapTok), so both
	// sides copy the map, the touched header, and the touched chunk on
	// first write — everything else stays shared.
	heap       map[*SymBuffer]*bufCells
	heapShared bool
	heapTok    *heapToken

	// globalsShared marks Globals as shared with another state; the next
	// write copies first.
	globalsShared bool

	// consShared is the length of the Constraints prefix shared with a
	// forked child. In-place writes below it must copy the slice first;
	// an append that reallocates clears it.
	consShared int

	// pendingSuspend marks a freshly forked child whose guidance hook asked
	// for suspension during the fork itself (a summary application fires
	// per-path Leave events inside one step). addState routes such children
	// to the suspended pool instead of the scheduler.
	pendingSuspend bool

	// seq is an insertion sequence number assigned by the executor; used
	// by schedulers for deterministic tie-breaking.
	seq int
}

// Seq returns the state's insertion sequence number (monotonically
// increasing across the run; later states have larger numbers).
func (st *State) Seq() int { return st.seq }

// Top returns the current (innermost) frame.
func (st *State) Top() *Frame { return st.Frames[len(st.Frames)-1] }

// push appends a value to the operand stack of the top frame.
func (st *State) push(v Value) {
	fr := st.Top()
	fr.Stack = append(fr.Stack, v)
}

// pop removes and returns the top operand.
func (st *State) pop() Value {
	fr := st.Top()
	v := fr.Stack[len(fr.Stack)-1]
	fr.Stack = fr.Stack[:len(fr.Stack)-1]
	return v
}

// PCDigest returns the rolling digest of the path condition. It always
// equals solver.DigestOf(st.Constraints).
func (st *State) PCDigest() solver.Digest { return st.pcDigest }

// AddConstraint appends c to the path condition.
func (st *State) AddConstraint(c solver.Constraint) {
	st.appendConstraint(c)
}

// appendConstraint grows the path condition, keeping the rolling digest,
// the components and the shared-prefix marker coherent. Appending is always
// safe with respect to forked children: a child's view is capacity-clamped
// at the shared prefix, so in-place growth lands beyond what any child can
// see, and a reallocation makes the array private.
func (st *State) appendConstraint(c solver.Constraint) {
	n := int32(len(st.Constraints))
	oldCap := cap(st.Constraints)
	st.Constraints = append(st.Constraints, c)
	if cap(st.Constraints) != oldCap {
		st.consShared = 0
	}
	h := solver.HashConstraint(c)
	st.pcDigest = st.pcDigest.Add(h)
	st.noteChanged(st.pcw().add(c, n, h), c)
}

// replaceConstraint overwrites Constraints[i] (single-variable bound
// compaction), copying the slice first when i falls inside a prefix shared
// with a forked child. c must mention only variables of the replaced
// constraint's component.
func (st *State) replaceConstraint(i int, c solver.Constraint) {
	old := st.Constraints[i]
	if i < st.consShared {
		st.Constraints = append([]solver.Constraint(nil), st.Constraints...)
		st.consShared = 0
	}
	st.Constraints[i] = c
	st.pcDigest = st.pcDigest.Remove(solver.HashConstraint(old)).Add(solver.HashConstraint(c))
	st.noteChanged(st.pcw().replace(constraintKey(old), old, c), c)
}

// noteChanged updates the bookkeeping after c entered root r's component:
// the component lost its recorded model, it may no longer hold under
// LastModel, and pending verdicts no longer describe the path condition.
func (st *State) noteChanged(r int32, c solver.Constraint) {
	st.markDirty(r)
	if st.LastModel != nil && !c.Holds(st.LastModel) {
		st.markUnheld(r)
	}
	st.meta.pending = nil
}

// fork returns a copy-on-write child (the executor assigns it a fresh ID).
// Only the child's top frame is copied eagerly — both sides mutate their
// top frame on every step, so sharing it would be pure overhead — and
// everything else is shared until first write.
func (st *State) fork() *State {
	ns := &State{
		ID:        -1,
		Status:    StatusActive,
		Depth:     st.Depth,
		PathIndex: st.PathIndex,
		Diverted:  st.Diverted,
		Revived:   st.Revived,
		LastModel: st.LastModel,
		pcDigest:  st.pcDigest,
	}
	// Frames: share all but the top, which the child copies eagerly.
	ns.Frames = make([]*Frame, len(st.Frames))
	copy(ns.Frames, st.Frames)
	top := len(st.Frames) - 1
	for _, f := range st.Frames[:top] {
		f.refs.Add(1)
	}
	ns.Frames[top] = st.Frames[top].ownedCopy()
	// Globals: share the slice behind a dirty flag on both sides.
	ns.Globals = st.Globals
	ns.globalsShared = true
	st.globalsShared = true
	// Constraints/Trace: the child gets a capacity-clamped view, so its
	// own appends reallocate while the parent keeps appending in place
	// (growth past the clamp is invisible to the child).
	n := len(st.Constraints)
	ns.Constraints = st.Constraints[:n:n]
	ns.consShared = n
	st.consShared = n
	m := len(st.Trace)
	ns.Trace = st.Trace[:m:m]
	// Components: share the index behind a dirty flag; each side copies
	// what it touches (components.go).
	ns.pc = st.pc
	ns.pcShared = true
	st.pcShared = true
	ns.meta = st.meta.clone()
	// Heap: share the map and drop both sides' ownership tokens, freezing
	// every header and chunk in place (O(1) — no walk over the heap).
	// Either side's next buffer write re-owns just what it touches.
	if st.heap != nil {
		ns.heap = st.heap
		ns.heapShared = true
		st.heapShared = true
		st.heapTok = nil
	}
	return ns
}

// ensureTopOwned privatizes the top frame if it is shared. The executor
// calls it whenever a return exposes a buried (potentially shared) frame,
// restoring the owned-top invariant before the next step mutates PC or
// the operand stack.
func (st *State) ensureTopOwned() {
	i := len(st.Frames) - 1
	if i < 0 {
		return
	}
	f := st.Frames[i]
	// Release protocol: a sibling sharing this frame can fork (refs++) or
	// return (refs--) concurrently. Seeing 0 means this state is the last
	// sharer standing — everyone else has copied out — so the frame is
	// kept and may be mutated without a copy. The copy must complete
	// BEFORE the decrement is published: a sibling only starts mutating
	// the frame after it observes refs==0, which orders its writes after
	// this state's reads. Copying after a successful decrement would let
	// the new sole owner's pushes race the copy.
	for {
		r := f.refs.Load()
		if r == 0 {
			return
		}
		nf := f.ownedCopy()
		if f.refs.CompareAndSwap(r, r-1) {
			st.Frames[i] = nf
			return
		}
	}
}

// ensureGlobalsOwned privatizes the globals slice before a write.
func (st *State) ensureGlobalsOwned() {
	if st.globalsShared {
		st.Globals = append([]Value(nil), st.Globals...)
		st.globalsShared = false
	}
}

// bufSmeared reports whether the buffer has been smeared by a
// symbolic-index write in this state.
func (st *State) bufSmeared(b *SymBuffer) bool {
	if c := st.heap[b]; c != nil {
		return c.smeared
	}
	return false
}

// bufCell reads one buffer cell. Buffers without heap storage — and
// untouched chunks of stored buffers — read as zeroes.
func (st *State) bufCell(b *SymBuffer, i int) Value {
	if c := st.heap[b]; c != nil {
		if ch := c.chunks[i>>cellChunkShift]; ch != nil {
			return ch.data[i&cellChunkMask]
		}
	}
	return IntVal(0)
}

// bufCellsForWrite returns the buffer's cell header, exclusively owned by
// this state: it privatizes the heap map if shared, materializes an empty
// chunk index for untouched buffers, and copies headers owned elsewhere
// (sharing their frozen chunks).
func (st *State) bufCellsForWrite(b *SymBuffer) *bufCells {
	if st.heapShared {
		nh := make(map[*SymBuffer]*bufCells, len(st.heap)+2)
		for k, v := range st.heap {
			nh[k] = v
		}
		st.heap = nh
		st.heapShared = false
	}
	if st.heap == nil {
		st.heap = make(map[*SymBuffer]*bufCells, 4)
	}
	if st.heapTok == nil {
		st.heapTok = new(heapToken)
	}
	c := st.heap[b]
	if c == nil {
		c = &bufCells{
			owner:  st.heapTok,
			chunks: make([]*cellChunk, (b.Cap+cellChunkMask)>>cellChunkShift),
		}
		st.heap[b] = c
		return c
	}
	if c.owner != st.heapTok {
		nc := &bufCells{
			owner:   st.heapTok,
			chunks:  append([]*cellChunk(nil), c.chunks...),
			smeared: c.smeared,
		}
		st.heap[b] = nc
		return nc
	}
	return c
}

// setBufCell writes one buffer cell, re-owning (or materializing) only the
// chunk that holds it.
func (st *State) setBufCell(b *SymBuffer, i int, v Value) {
	c := st.bufCellsForWrite(b)
	ci := i >> cellChunkShift
	ch := c.chunks[ci]
	switch {
	case ch == nil:
		ch = &cellChunk{owner: c.owner}
		for j := range ch.data {
			ch.data[j] = IntVal(0)
		}
		c.chunks[ci] = ch
	case ch.owner != c.owner:
		nch := &cellChunk{owner: c.owner, data: ch.data}
		c.chunks[ci] = nch
		ch = nch
	}
	ch.data[i&cellChunkMask] = v
}

// VarBounds is the interval a state's single-variable path constraints
// imply for one variable.
type VarBounds struct {
	Lo, Hi       int64
	HasLo, HasHi bool
}

// mentions reports whether the path condition constrains v.
func (st *State) mentions(v solver.Var) bool { return st.pc.lookup(v) != nil }

// bounds returns the interval the path condition's single-variable
// constraints imply for v.
func (st *State) bounds(v solver.Var) VarBounds {
	if e := st.pc.lookup(v); e != nil {
		return e.b
	}
	return VarBounds{}
}

// CurrentFunc returns the name of the function the state is executing.
func (st *State) CurrentFunc() string {
	if len(st.Frames) == 0 {
		return ""
	}
	return st.Top().Fn.Name
}
