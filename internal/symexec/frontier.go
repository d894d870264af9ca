package symexec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/solver"
)

// This file implements the parallel in-candidate frontier engine. The
// sequential loop (runSequential) steps one state per scheduling quantum;
// here a pool of workers steps many frontier states concurrently while
// keeping the run deterministic.
//
// The engine proceeds in epochs. Each epoch:
//
//  1. Draft: up to EpochWidth states are popped from the scheduler in its
//     canonical order, on the main goroutine.
//  2. Execute: each drafted state runs one scheduling quantum on a worker
//     (static stride assignment: worker w takes drafted slots w, w+W, ...).
//     Workers never touch shared mutable structures except through the
//     locked input registry, the atomic visit counters, and the
//     copy-on-write state internals, all of which are order-independent.
//  3. Merge: on the main goroutine, in draft order, each slot's outcome is
//     folded back — step/fork deltas, vulnerabilities (site-deduped, with
//     StopAtFirstVuln honored at the first merged vulnerability), forked
//     children (addState in creation order), suspension/completion, and
//     rescheduling.
//
// Determinism argument: everything that influences exploration — the draft
// sequence, each quantum's execution, and the merge order — is a function
// of EpochWidth and the program, never of the worker count. Every drafted
// slot runs its quantum to completion even when an earlier slot's outcome
// will stop the run; post-stop slots are then discarded wholesale at merge.
// Per-slot solvers are persistent across epochs, so slot i's cache-counter
// sequence is also W-independent. Hence Workers=1 and Workers=N produce
// byte-identical Results, and the differential tests pin exactly that.
//
// Variable identity is kept deterministic by lane-striped allocation
// (solver.LaneGroup): slot i allocates fresh solver variables from lane i,
// the main executor from lane EpochWidth, and the input registry's
// overflow path from lane EpochWidth+1, so concurrent allocations never
// depend on interleaving.

// quantumOut is the collected outcome of one scheduling quantum executed
// on a worker slot: forked children in creation order, plus the drafted
// state's disposition.
type quantumOut struct {
	children []*State
	suspend  bool
	done     bool
}

// runQuantumCollect is runQuantum for worker slots: instead of mutating
// the scheduler, the suspended pool, and the global result, it collects
// the quantum's outcome for deterministic merging. Step and fork deltas
// accumulate in the slot's private res; vulnerabilities in its private
// Vulns list.
func (sx *Executor) runQuantumCollect(st *State) (out quantumOut) {
	for i := 0; i < sx.Opts.BatchSize; i++ {
		children, suspend, done := sx.step(st)
		out.children = append(out.children, children...)
		if suspend {
			out.suspend = true
			return out
		}
		if done {
			out.done = true
			return out
		}
		if sx.stopped {
			return out
		}
	}
	return out
}

// newSlot builds a worker-slot view of the executor: shared program,
// variable table, input registry, visit counters and options; private
// result deltas, solver stack (with the shared physical-verdict cache),
// variable lane, and buffered visit counters (plain increments during the
// quantum, flushed at the merge barrier; see recordVisit).
func (ex *Executor) newSlot(lane *solver.Lane, shared *solver.SharedCache) *Executor {
	sx := &Executor{
		Prog:       ex.Prog,
		Table:      ex.Table,
		Solver:     solver.NewCached(solver.New()),
		Opts:       ex.Opts,
		inputs:     ex.inputs,
		res:        &Result{},
		ctx:        ex.ctx,
		visits:     ex.visits,
		lane:       lane,
		visitDelta: make([][]int64, len(ex.Prog.Funcs)),
		visitDirty: make([]visitRef, 0, ex.Opts.BatchSize),
	}
	for j, fn := range ex.Prog.Funcs {
		sx.visitDelta[j] = make([]int64, len(fn.Code))
	}
	sx.Solver.Shared = shared
	return sx
}

// resetDeltas clears a slot's per-quantum accumulators.
func (sx *Executor) resetDeltas() {
	sx.res.Steps = 0
	sx.res.Forks = 0
	sx.res.SummaryCalls = 0
	sx.res.SummaryPaths = 0
	sx.res.HavocCalls = 0
	sx.res.DepthExhausted = 0
	sx.res.Vulns = sx.res.Vulns[:0]
	sx.stopped = false
}

// mergeOut folds one quantum's outcome into the main executor during the
// epoch merge phase. A quantum merged after the run has stopped is
// discarded wholesale — its deltas never surface, which is deterministic
// because the stop point is.
func (ex *Executor) mergeOut(sx *Executor, st *State, out quantumOut) {
	if sx.visitDelta != nil {
		// Visit counts always merge — every drafted slot runs to completion
		// regardless of worker count, so the sums are schedule-deterministic
		// even for quanta whose other deltas are discarded below.
		ex.flushVisits(sx)
	}
	if ex.stopped {
		sx.resetDeltas()
		return
	}
	ex.res.Steps += sx.res.Steps
	ex.res.Forks += sx.res.Forks
	ex.res.SummaryCalls += sx.res.SummaryCalls
	ex.res.SummaryPaths += sx.res.SummaryPaths
	ex.res.HavocCalls += sx.res.HavocCalls
	ex.res.DepthExhausted += sx.res.DepthExhausted
	for _, v := range sx.res.Vulns {
		dup := false
		for _, prev := range ex.res.Vulns {
			if prev.Site() == v.Site() {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ex.res.Vulns = append(ex.res.Vulns, v)
		if ex.Opts.StopAtFirstVuln {
			ex.stopped = true
			break
		}
	}
	sx.resetDeltas()
	if ex.stopped {
		// Mirror the sequential engine's stop-at-vulnerability: the quantum
		// stopped at its faulting step, and a faulting state that ended
		// there counts as a finished path, as in runQuantum; the rest of the
		// quantum's outcome (children, rescheduling) is dropped.
		if out.done {
			ex.res.Paths++
		}
		return
	}
	for _, child := range out.children {
		ex.addState(child)
		if ex.stopped {
			break
		}
	}
	switch {
	case out.suspend:
		st.Status = StatusSuspended
		ex.suspended = append(ex.suspended, st)
		ex.suspensions++
		if ex.hops != nil {
			ex.hops.Observe(int64(st.Diverted))
		}
	case out.done:
		ex.res.Paths++
	default:
		if !ex.stopped {
			ex.sched.Add(st)
		}
	}
}

// foldSlotSolver adds a slot solver's counters into the main solver's, so
// the common counter fold in RunContext sees the whole run. Wall time is
// tracked separately (extraWall) because WallTime is internally atomic.
func (ex *Executor) foldSlotSolver(sx *Executor) {
	ex.Solver.Queries.Checks += sx.Solver.Queries.Checks
	ex.Solver.Queries.Sat += sx.Solver.Queries.Sat
	ex.Solver.Queries.Unsat += sx.Solver.Queries.Unsat
	ex.Solver.Queries.Unknown += sx.Solver.Queries.Unknown
	ex.Solver.Hits += sx.Solver.Hits
	ex.Solver.Misses += sx.Solver.Misses
	ex.Solver.Evictions += sx.Solver.Evictions
	ex.Solver.SharedHits += sx.Solver.SharedHits
	ex.Solver.SharedMisses += sx.Solver.SharedMisses
	ex.extraWall += sx.Solver.WallTime()
}

// frontier is the epoch engine's run state.
type frontier struct {
	ex      *Executor
	width   int // draft slots per epoch (determines the schedule)
	workers int // goroutines (wall-clock only)
	slots   []*Executor
	drafted []*State
	outs    []quantumOut
	busy    []time.Duration
	fill    *obs.Histogram
	start   time.Time
}

func newFrontier(ex *Executor, width, workers int) *frontier {
	// Carve the variable table into deterministic lanes before any worker
	// starts: one per slot, one for the main executor, one for the
	// registry's overflow path.
	group := ex.Table.NewLaneGroup(width + 2)
	ex.lane = group.Lane(width)
	ex.inputs.mu.Lock()
	ex.inputs.overflow = group.Lane(width + 1)
	ex.inputs.mu.Unlock()
	shared := ex.Opts.SharedCache
	if shared == nil && workers > 1 {
		// Workers within one attempt share physical solves; counters are
		// unaffected (see solver.CachedSolver.Shared), so Workers=1 without
		// a shared cache still matches Workers=N with one.
		shared = solver.NewSharedCache(0)
	}
	if shared != nil {
		ex.Solver.Shared = shared
	}
	f := &frontier{
		ex:      ex,
		width:   width,
		workers: workers,
		slots:   make([]*Executor, width),
		drafted: make([]*State, 0, width),
		outs:    make([]quantumOut, width),
		busy:    make([]time.Duration, workers),
		start:   time.Now(),
	}
	for i := range f.slots {
		f.slots[i] = ex.newSlot(group.Lane(i), shared)
	}
	if ex.obsv != nil {
		f.fill = ex.obsv.Metrics.Histogram(obs.MetricEpochFill, obs.EpochFillBuckets...)
	}
	return f
}

// runEpochs is the deterministic parallel engine (Options.Workers >= 1).
func (ex *Executor) runEpochs() {
	width := ex.Opts.EpochWidth
	if width <= 0 {
		width = DefaultEpochWidth
	}
	workers := ex.Opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > width {
		workers = width
	}
	f := newFrontier(ex, width, workers)
	f.run()
	f.finish()
}

func (f *frontier) run() {
	ex := f.ex
	for !ex.stopped {
		if ex.res.Steps >= ex.Opts.MaxSteps {
			ex.res.StepLimited = true
			return
		}
		if err := ex.ctx.Err(); err != nil {
			ex.noteInterrupt(err)
			return
		}
		if ex.obsv != nil && ex.obsv.Interval > 0 && time.Since(ex.lastSnap) >= ex.obsv.Interval {
			ex.emitProgress()
			ex.lastSnap = time.Now()
		}
		// Draft in canonical scheduler order. The suspended pool is revived
		// only when the scheduler is empty before anything was drafted,
		// matching the sequential engine's fallback priority (children of
		// this epoch's quanta run before revived states).
		f.drafted = f.drafted[:0]
		for len(f.drafted) < f.width {
			cur := ex.sched.Next()
			if cur == nil {
				if len(f.drafted) > 0 || len(ex.suspended) == 0 {
					break
				}
				ex.reviveSuspended()
				continue
			}
			f.drafted = append(f.drafted, cur)
		}
		if len(f.drafted) == 0 {
			return
		}
		ex.res.Epochs++
		if f.fill != nil {
			f.fill.Observe(int64(len(f.drafted)))
		}
		f.dispatch()
		f.merge()
	}
}

// dispatch executes every drafted slot's quantum, on the caller when one
// worker suffices, else on a static-stride worker pool. All drafted slots
// always run to completion — even if an earlier slot's outcome will stop
// the run — so guidance bookkeeping and per-slot solver counters are
// independent of the worker count.
func (f *frontier) dispatch() {
	n := len(f.drafted)
	w := f.workers
	if w > n {
		w = n
	}
	// Goroutines beyond the runnable-thread limit cannot overlap and only
	// pay scheduling latency at the epoch barrier. Results are unchanged:
	// draft order, quantum boundaries, and merge order depend only on
	// EpochWidth, never on how slots are spread across workers.
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	if w <= 1 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f.outs[i] = f.slots[i].runQuantumCollect(f.drafted[i])
		}
		f.busy[0] += time.Since(t0)
		return
	}
	var wg sync.WaitGroup
	var fault atomic.Value
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(wk int) {
			defer wg.Done()
			defer func() {
				// Relay a panic to the caller's goroutine, where the
				// run's owner (a dispatch worker's per-unit recover) can
				// contain it; on a worker goroutine it would end the
				// process.
				if r := recover(); r != nil {
					fault.CompareAndSwap(nil, fmt.Sprint(r))
				}
			}()
			t0 := time.Now()
			for i := wk; i < n; i += w {
				f.outs[i] = f.slots[i].runQuantumCollect(f.drafted[i])
			}
			f.busy[wk] += time.Since(t0)
		}(wk)
	}
	wg.Wait()
	if r := fault.Load(); r != nil {
		panic(fmt.Sprintf("symexec: epoch worker panicked: %v", r))
	}
}

// merge folds the epoch's outcomes back in draft order.
func (f *frontier) merge() {
	for i, st := range f.drafted {
		out := f.outs[i]
		f.outs[i] = quantumOut{}
		f.ex.mergeOut(f.slots[i], st, out)
	}
}

// finish folds the slots' solver counters and emits the engine metrics.
func (f *frontier) finish() {
	ex := f.ex
	for i, sx := range f.slots {
		// Per-slot solver wall is recorded before the fold collapses it
		// into the run total, so traces keep the split by lane instead of
		// one undifferentiated accumulation.
		if ex.obsv != nil {
			if w := sx.Solver.WallTime(); w > 0 {
				ex.obsv.Metrics.Counter(obs.SlotSolverWallMetric(i)).Add(int64(w))
			}
		}
		ex.foldSlotSolver(sx)
	}
	if ex.obsv == nil {
		return
	}
	var busy time.Duration
	for _, b := range f.busy {
		busy += b
	}
	m := ex.obsv.Metrics
	m.Counter(obs.MetricWorkerBusyNanos).Add(int64(busy))
	if elapsed := time.Since(f.start); elapsed > 0 && f.workers > 0 {
		util := 100 * int64(busy) / (int64(elapsed) * int64(f.workers))
		m.Gauge(obs.MetricWorkerUtilPct).SetMax(util)
	}
}
