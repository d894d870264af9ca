package symexec

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"time"

	"repro/internal/bytecode"
	"repro/internal/interp"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/trace"
)

// HookDecision is the guidance hook's verdict for a state at a location.
type HookDecision int

// Hook decisions.
const (
	HookContinue HookDecision = iota
	HookSuspend
)

// LocationHook observes a state crossing an instrumentation location
// (function entry/exit). StatSym's state manager is implemented as such a
// hook: it tracks candidate-path progress, applies predicate constraints,
// and suspends states that diverge beyond the hop threshold.
type LocationHook func(ex *Executor, st *State, loc trace.Location, view *VarView) HookDecision

// Options configures an execution.
type Options struct {
	// Sched selects the state scheduler (default: BFS, the pure baseline).
	Sched Scheduler
	// MaxStates bounds live states; exceeding it aborts the run with
	// Exhausted=true — the analogue of KLEE running out of memory
	// ("state exploration failure due to lack of available memory",
	// §VII-B). Zero means DefaultMaxStates.
	MaxStates int
	// MaxSteps bounds total executed instructions (0: DefaultMaxSteps).
	MaxSteps int64
	// Timeout bounds wall-clock time (0: none).
	Timeout time.Duration
	// StopAtFirstVuln stops the whole run at the first vulnerability.
	StopAtFirstVuln bool
	// BatchSize is the scheduling quantum in instructions (0: default).
	BatchSize int
	// MaxDepth bounds the call stack.
	MaxDepth int
	// CheckStringReads enables out-of-bounds oracles on char() with
	// symbolic operands (extra solver queries). Defaults to true via
	// DefaultOptions.
	CheckStringReads bool
	// Hook is the guidance hook (nil for pure symbolic execution).
	Hook LocationHook
	// Calls selects the compositional call strategy (nil: interpret every
	// call, today's behavior). Build one with NewCallStrategy; the same
	// strategy value is shared read-only by the frontier engine's worker
	// slots, so implementations must be concurrency-safe.
	Calls CallStrategy
	// SharedCache, when set, lets this executor's solver reuse verdicts
	// solved by other executors (parallel candidate verification). Purely
	// a wall-clock optimization: verdicts, models, and all Result counters
	// are unaffected (the solver is deterministic and the local logical
	// counters are maintained identically on shared hits).
	SharedCache *solver.SharedCache
	// OriginHashes, when set, is the per-function content-hash table
	// (summary.HashProgram, indexed by Fn.Index). The executor stamps each
	// solver query with the hash of the function whose branch issued it,
	// so the persistent cache can attribute — and later invalidate —
	// entries by origin function. Purely attributive: never consulted for
	// verdicts.
	OriginHashes []uint64
	// Workers selects the engine. 0 (the default) runs the original
	// sequential loop. >= 1 runs the epoch-based parallel frontier engine
	// (frontier.go) with that many worker goroutines: states are drafted
	// from the scheduler in canonical order, stepped concurrently, and
	// merged back in draft order. Results depend only on EpochWidth, never
	// on the worker count, so Workers=1 and Workers=8 produce identical
	// Results (and the race detector stays clean). Note the epoch engine is
	// a different deterministic engine from the sequential loop: variable
	// numbering is laned and input channels are pre-registered, so its
	// exploration can differ from Workers=0 on programs where those matter.
	Workers int
	// EpochWidth is the number of states drafted per epoch (0:
	// DefaultEpochWidth). It, not Workers, determines the schedule.
	EpochWidth int
}

// Default limits.
const (
	DefaultMaxStates  = 20_000
	DefaultMaxSteps   = 20_000_000
	DefaultBatchSize  = 64
	DefaultMaxDepth   = 128
	DefaultEpochWidth = 8
)

// DefaultOptions returns the pure-symbolic-execution defaults.
func DefaultOptions() Options {
	return Options{
		StopAtFirstVuln:  true,
		CheckStringReads: true,
	}
}

// Vulnerability is a proven-reachable fault with its complete path,
// constraints, and a concrete witness input — the tool's primary output
// ("the complete execution path (and path constraints) that leads to the
// program failure point", §IV).
type Vulnerability struct {
	Kind        interp.FaultKind
	Func        string
	Pos         minic.Pos
	Path        []trace.Location
	Constraints []solver.Constraint
	Model       solver.Model
	Witness     *interp.Input
}

// Site returns a stable identifier of the fault site.
func (v *Vulnerability) Site() string {
	return fmt.Sprintf("%s:%s@%s", v.Kind, v.Func, v.Pos)
}

// Result summarizes an execution.
type Result struct {
	Vulns []*Vulnerability
	// Paths counts completed paths (terminated, faulted, or proven
	// infeasible states) — the "#paths" column of Table IV.
	Paths int
	// StatesCreated counts every state ever scheduled; MaxLive is the
	// peak live-state count.
	StatesCreated int
	MaxLive       int
	Steps         int64
	Forks         int
	// Compositional-call counters (deterministic; timing-dependent summary
	// cache hit/miss rates live on summary.Cache instead). SummaryCalls
	// counts calls replaced by summary instantiation, SummaryPaths the
	// feasible paths those instantiations produced, HavocCalls the
	// out-of-scope calls replaced by havoc summaries, and DepthExhausted
	// the paths cut off by the MaxDepth call-stack bound.
	SummaryCalls   int
	SummaryPaths   int
	HavocCalls     int
	DepthExhausted int
	// SolverChecks/SolverUnknowns count satisfiability queries issued to
	// the solver (excluding model-cache fast paths); SolverSat/SolverUnsat
	// split the decided queries by verdict.
	SolverChecks   int
	SolverUnknowns int
	SolverSat      int
	SolverUnsat    int
	// CacheHits/CacheMisses are the solver query-cache counters and
	// SolverTime the wall clock spent inside non-memoized solver checks —
	// surfaced here so pipeline reports need not reach into the solver.
	// CacheEvictions counts LRU evictions from the exact-match cache.
	CacheHits      int
	CacheMisses    int
	CacheEvictions int
	SolverTime     time.Duration
	// Exhausted reports the state-budget abort (KLEE OOM analogue);
	// StepLimited and TimedOut report the other resource aborts.
	Exhausted   bool
	StepLimited bool
	TimedOut    bool
	// Cancelled reports that the run's context was cancelled by the
	// caller (user interrupt, a sibling candidate winning the race) —
	// distinct from TimedOut, which reports an expired wall-clock budget.
	Cancelled bool
	Elapsed   time.Duration
	// SuspendedAtEnd counts states still suspended when the run stopped.
	SuspendedAtEnd int
	// Revivals counts suspended-pool revivals (guidance fallback events).
	Revivals int
	// Epochs counts merge epochs of the parallel frontier engine (0 under
	// the sequential engine). Deterministic: a function of EpochWidth and
	// the program, never of Workers.
	Epochs int64
}

// Found reports whether at least one vulnerability was discovered.
func (r *Result) Found() bool { return len(r.Vulns) > 0 }

// Executor drives symbolic execution of one program.
type Executor struct {
	Prog   *bytecode.Program
	Table  *solver.VarTable
	Solver *solver.CachedSolver
	Opts   Options

	inputs    *inputRegistry
	sched     Scheduler
	suspended []*State
	res       *Result

	nextID  int
	nextSeq int
	ctx     context.Context
	stopped bool

	// resumed marks an executor reconstructed from a checkpoint: its
	// scheduler is already populated, so RunContext must not re-run
	// program initialization (see checkpoint.go).
	resumed bool

	visits [][]int64

	// Parallel frontier engine plumbing (see frontier.go). lane, when set,
	// supplies this executor view's fresh variable IDs (each worker slot has
	// its own lane so concurrent allocation is deterministic); extraWall
	// accumulates the worker slots' solver wall time.
	lane      *solver.Lane
	extraWall time.Duration

	// Epoch-engine slots buffer visit counts locally (visitDelta, with
	// visitDirty listing the touched instructions) and flush them into the
	// main executor's arrays at the merge barrier, where the scheduler —
	// the only reader — runs, so no visit count is ever touched by two
	// goroutines at once.
	visitDelta [][]int64
	visitDirty []visitRef

	// Scratch buffers of component queries (checkComponents).
	items []queryItem
	cons  []solver.Constraint
	idx   []int32

	// Observability (nil when disabled — the only cost is nil checks).
	// obsv/span are resolved once per RunContext from the context; hops is
	// the pre-resolved diverted-hop histogram so the suspension path does
	// not take the registry lock; suspensions feeds the pruned-states
	// counter.
	obsv        *obs.Obs
	span        *obs.Span
	hops        *obs.Histogram
	lastSnap    time.Time
	suspensions int64
}

// New prepares an executor for prog with the given symbolic-input spec.
func New(prog *bytecode.Program, spec *InputSpec, opts Options) *Executor {
	table := solver.NewVarTable()
	if opts.Sched == nil {
		opts.Sched = NewBFS()
	}
	if opts.MaxStates == 0 {
		opts.MaxStates = DefaultMaxStates
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	if opts.BatchSize == 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	ex := &Executor{
		Prog:   prog,
		Table:  table,
		Solver: solver.NewCached(solver.New()),
		Opts:   opts,
		inputs: newInputRegistry(table, spec),
		sched:  opts.Sched,
		res:    &Result{},
		visits: make([][]int64, len(prog.Funcs)),
	}
	ex.Solver.Shared = opts.SharedCache
	if cov, ok := opts.Sched.(*CoverageScheduler); ok {
		cov.SetVisitFunc(ex.visitCount)
	}
	if opts.Workers > 0 {
		// Deterministic variable identity under concurrency: pre-register
		// every literal-named input channel and reserve byte blocks for
		// symbolic strings, so IDs never depend on which worker gets there
		// first.
		ex.inputs.blocks = true
		ex.inputs.prescan(prog)
		// Visit counters are shared by the worker slots; allocate them all
		// up front so recordVisit never races a lazy allocation.
		for i, fn := range prog.Funcs {
			ex.visits[i] = make([]int64, len(fn.Code))
		}
	}
	return ex
}

// alloc returns this executor view's variable allocator: its lane under the
// parallel frontier engine, the dense table otherwise.
func (ex *Executor) alloc() solver.VarAllocator {
	if ex.lane != nil {
		return ex.lane
	}
	return ex.Table
}

func (ex *Executor) newVar(name string) solver.Var {
	return ex.alloc().NewVar(name)
}

func (ex *Executor) newVarBounded(name string, lo, hi int64) solver.Var {
	return ex.alloc().NewVarBounded(name, lo, hi)
}

func (ex *Executor) freshStr(label string, maxLen int64) *SymString {
	return ex.inputs.freshStr(ex.alloc(), label, maxLen)
}

func (ex *Executor) visitCount(fnIndex, pc int) int64 {
	v := ex.visits[fnIndex]
	if v == nil || pc >= len(v) {
		return 0
	}
	return v[pc]
}

// visitRef names one instruction with a buffered visit delta.
type visitRef struct {
	fn, pc int32
}

func (ex *Executor) recordVisit(fnIndex, pc int) {
	if ex.visits[fnIndex] == nil {
		ex.visits[fnIndex] = make([]int64, len(ex.Prog.Funcs[fnIndex].Code))
	}
	if pc < len(ex.visits[fnIndex]) {
		if ex.visitDelta != nil {
			// Epoch-engine slot: buffer locally, flushed at the merge
			// barrier (order-independent sums keep scheduling deterministic).
			d := ex.visitDelta[fnIndex]
			if d[pc] == 0 {
				ex.visitDirty = append(ex.visitDirty, visitRef{fn: int32(fnIndex), pc: int32(pc)})
			}
			d[pc]++
			return
		}
		ex.visits[fnIndex][pc]++
	}
}

// flushVisits folds a slot's buffered visit counts into the main arrays.
// Called at the merge barrier, where no worker is running.
func (ex *Executor) flushVisits(sx *Executor) {
	for _, ref := range sx.visitDirty {
		d := sx.visitDelta[ref.fn]
		ex.visits[ref.fn][ref.pc] += d[ref.pc]
		d[ref.pc] = 0
	}
	sx.visitDirty = sx.visitDirty[:0]
}

// Run executes until a stop condition: vulnerability found (with
// StopAtFirstVuln), state space exhausted, budget exceeded, or no states
// remain.
func (ex *Executor) Run() *Result {
	return ex.RunContext(context.Background())
}

// RunContext is Run under a context: the step loop checks the context
// cooperatively once per scheduling quantum, so cancellation latency is
// bounded by one batch of instructions (plus at most one solver query,
// each of which is itself budget-bounded). Options.Timeout, when set, is
// layered on top of ctx as a deadline; an expired deadline is recorded as
// TimedOut, an explicit cancellation as Cancelled. Either way the Result
// is complete and internally consistent — counters reflect exactly the
// work done before the stop.
func (ex *Executor) RunContext(ctx context.Context) *Result {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	if ex.Opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, ex.Opts.Timeout)
		defer cancel()
	}
	ex.ctx = ctx
	if o := obs.FromContext(ctx); o != nil {
		ex.obsv = o
		ex.span = obs.SpanFromContext(ctx)
		ex.hops = o.Metrics.Histogram(obs.MetricDivertedHops, obs.HopBuckets...)
		ex.lastSnap = start
	}
	if !ex.resumed {
		st, err := ex.initialState()
		if err != nil {
			// Initialization of globals cannot fork or fault in checked
			// programs; treat failures as an empty result.
			ex.res.Elapsed = time.Since(start)
			return ex.res
		}
		ex.addState(st)
	}
	if ex.Opts.Workers > 0 {
		ex.runEpochs()
	} else {
		ex.runSequential()
	}
	ex.res.SuspendedAtEnd = len(ex.suspended)
	// Logical solver counters (CachedSolver.Queries, not S.Stats): they
	// are identical whether or not a SharedCache served some verdicts, so
	// Report counters stay deterministic across run configurations.
	ex.res.SolverChecks = ex.Solver.Queries.Checks
	ex.res.SolverUnknowns = ex.Solver.Queries.Unknown
	ex.res.SolverSat = ex.Solver.Queries.Sat
	ex.res.SolverUnsat = ex.Solver.Queries.Unsat
	ex.res.CacheHits = ex.Solver.Hits
	ex.res.CacheMisses = ex.Solver.Misses
	ex.res.CacheEvictions = ex.Solver.Evictions
	ex.res.SolverTime = ex.Solver.WallTime() + ex.extraWall
	ex.res.Elapsed = time.Since(start)
	if ex.obsv != nil {
		ex.mirrorMetrics()
	}
	return ex.res
}

// runSequential is the original single-threaded scheduling loop.
func (ex *Executor) runSequential() {
	for !ex.stopped {
		if ex.res.Steps >= ex.Opts.MaxSteps {
			ex.res.StepLimited = true
			break
		}
		if err := ex.ctx.Err(); err != nil {
			ex.noteInterrupt(err)
			break
		}
		if ex.obsv != nil && ex.obsv.Interval > 0 && time.Since(ex.lastSnap) >= ex.obsv.Interval {
			ex.emitProgress()
			ex.lastSnap = time.Now()
		}
		cur := ex.sched.Next()
		if cur == nil {
			if len(ex.suspended) == 0 {
				break
			}
			// Revive the suspended pool: guidance found nothing among the
			// prioritized states, so fall back toward pure symbolic
			// execution (paper footnote 1).
			ex.reviveSuspended()
			continue
		}
		ex.runQuantum(cur)
	}
}

// reviveSuspended returns every suspended state to the scheduler.
func (ex *Executor) reviveSuspended() {
	ex.res.Revivals++
	for _, s := range ex.suspended {
		s.Revived = true
		s.Status = StatusActive
		ex.sched.Add(s)
	}
	ex.suspended = ex.suspended[:0]
}

// emitProgress streams a snapshot of the live counters to the event sink,
// attached to the enclosing span (the per-candidate verify span in the
// pipeline). Called at most once per Obs.Interval from the scheduling
// loop, so a long quantum delays a snapshot by at most one batch.
func (ex *Executor) emitProgress() {
	phase := "explore"
	if ex.span != nil {
		phase = ex.span.Name
	}
	attrs := []obs.Attr{
		obs.A("phase", phase),
		obs.A("steps", ex.res.Steps),
		obs.A("paths", ex.res.Paths),
		obs.A("states_live", ex.liveStates()),
		obs.A("states_created", ex.res.StatesCreated),
		obs.A("suspended", len(ex.suspended)),
		obs.A("solver_checks", ex.Solver.Queries.Checks),
		obs.A("cache_hits", ex.Solver.Hits),
		obs.A("cache_misses", ex.Solver.Misses),
		obs.A("solver_wall_us", ex.Solver.WallTime().Microseconds()),
	}
	if ex.res.Epochs > 0 {
		attrs = append(attrs, obs.A("epochs", ex.res.Epochs))
	}
	if ex.res.SummaryCalls > 0 {
		attrs = append(attrs, obs.A("summary_calls", ex.res.SummaryCalls))
	}
	ex.obsv.Progress(ex.span, attrs...)
}

// mirrorMetrics folds the run's final counters into the shared metrics
// registry under the standard names. Done once at the end of the run —
// the hot loop touches no metric except the pre-resolved hop histogram.
func (ex *Executor) mirrorMetrics() {
	m := ex.obsv.Metrics
	r := ex.res
	m.Counter(obs.MetricSteps).Add(r.Steps)
	m.Counter(obs.MetricForks).Add(int64(r.Forks))
	m.Counter(obs.MetricPaths).Add(int64(r.Paths))
	m.Counter(obs.MetricStatesCreated).Add(int64(r.StatesCreated))
	m.Counter(obs.MetricStatesPruned).Add(ex.suspensions)
	m.Counter(obs.MetricRevivals).Add(int64(r.Revivals))
	m.Gauge(obs.MetricStatesLive).SetMax(int64(r.MaxLive))
	m.Counter(obs.MetricSolverChecks).Add(int64(r.SolverChecks))
	m.Counter(obs.MetricSolverSat).Add(int64(r.SolverSat))
	m.Counter(obs.MetricSolverUnsat).Add(int64(r.SolverUnsat))
	m.Counter(obs.MetricSolverUnknown).Add(int64(r.SolverUnknowns))
	m.Counter(obs.MetricCacheHits).Add(int64(r.CacheHits))
	m.Counter(obs.MetricCacheMisses).Add(int64(r.CacheMisses))
	// Evictions split by cause: capacity pressure (r.CacheEvictions, the
	// historical meaning) vs origin invalidation after a code change. The
	// unsplit counter stays as the total for dashboard continuity.
	m.Counter(obs.MetricCacheEvictions).Add(int64(r.CacheEvictions) + int64(ex.Solver.Invalidations))
	m.Counter(obs.MetricCacheEvictionsCapacity).Add(int64(r.CacheEvictions))
	if ex.Solver.Invalidations > 0 {
		m.Counter(obs.MetricCacheEvictionsInvalidate).Add(int64(ex.Solver.Invalidations))
	}
	if ex.Solver.Shared != nil {
		// Per-executor contributions; summed across executors they equal
		// the SharedCache's own totals.
		m.Counter(obs.MetricSharedCacheHits).Add(int64(ex.Solver.SharedHits))
		m.Counter(obs.MetricSharedCacheMisses).Add(int64(ex.Solver.SharedMisses))
	}
	if r.SummaryCalls > 0 || r.SummaryPaths > 0 {
		m.Counter(obs.MetricSummaryCalls).Add(int64(r.SummaryCalls))
		m.Counter(obs.MetricSummaryPaths).Add(int64(r.SummaryPaths))
	}
	if r.HavocCalls > 0 {
		m.Counter(obs.MetricHavocCalls).Add(int64(r.HavocCalls))
	}
	if r.DepthExhausted > 0 {
		m.Counter(obs.MetricDepthExhausted).Add(int64(r.DepthExhausted))
	}
	if r.Epochs > 0 {
		m.Counter(obs.MetricEpochs).Add(r.Epochs)
		m.Gauge(obs.MetricWorkers).SetMax(int64(ex.Opts.Workers))
	}
}

// noteInterrupt records why the context stopped the run: a deadline is a
// timeout (the classic resource abort), anything else is a cancellation.
func (ex *Executor) noteInterrupt(err error) {
	if err == context.DeadlineExceeded {
		ex.res.TimedOut = true
		return
	}
	ex.res.Cancelled = true
}

// runCtx returns the active run context (Background outside RunContext,
// e.g. for hook-driven solver calls issued from tests).
func (ex *Executor) runCtx() context.Context {
	if ex.ctx == nil {
		return context.Background()
	}
	return ex.ctx
}

// initialState runs $init (straight-line global initializers) and returns
// a state poised at main's entry.
func (ex *Executor) initialState() (*State, error) {
	prog := ex.Prog
	st := &State{ID: ex.nextID, Status: StatusActive}
	ex.nextID++
	st.Globals = make([]Value, len(prog.Globals))
	for i, g := range prog.Globals {
		if g.Type == minic.TypeString {
			st.Globals[i] = StrVal("")
		} else {
			st.Globals[i] = IntVal(0)
		}
	}
	initFn := prog.Funcs[prog.InitIndex]
	st.Frames = []*Frame{{Fn: initFn, Locals: make([]Value, initFn.NumLocals)}}
	for len(st.Frames) > 0 {
		children, suspend, done := ex.step(st)
		if len(children) > 0 || suspend {
			return nil, fmt.Errorf("symexec: global initializers must be deterministic")
		}
		if done {
			break
		}
	}
	if st.Status == StatusFaulted {
		return nil, fmt.Errorf("symexec: fault during global initialization")
	}
	// Enter main.
	st.Status = StatusActive
	mainFn := prog.Funcs[prog.MainIndex]
	st.Frames = []*Frame{{Fn: mainFn, Locals: make([]Value, mainFn.NumLocals)}}
	ex.fireLocation(st, trace.Location{Func: mainFn.Name, Kind: trace.EventEnter}, nil)
	return st, nil
}

func (ex *Executor) addState(st *State) {
	if st.ID < 0 {
		st.ID = ex.nextID
		ex.nextID++
	}
	st.seq = ex.nextSeq
	ex.nextSeq++
	ex.res.StatesCreated++
	if st.pendingSuspend {
		// The guidance hook suspended this child at its birth (per-path
		// Leave events of a summary application); park it directly.
		st.pendingSuspend = false
		st.Status = StatusSuspended
		ex.suspended = append(ex.suspended, st)
		ex.suspensions++
		if ex.hops != nil {
			ex.hops.Observe(int64(st.Diverted))
		}
	} else {
		st.Status = StatusActive
		ex.sched.Add(st)
	}
	if live := ex.liveStates(); live > ex.res.MaxLive {
		ex.res.MaxLive = live
	}
	if ex.liveStates() > ex.Opts.MaxStates {
		ex.res.Exhausted = true
		ex.stopped = true
	}
}

func (ex *Executor) liveStates() int {
	return ex.sched.Len() + len(ex.suspended)
}

// runQuantum executes up to BatchSize instructions of st, then reinserts
// it into the scheduler if it is still runnable.
func (ex *Executor) runQuantum(st *State) {
	for i := 0; i < ex.Opts.BatchSize; i++ {
		children, suspend, done := ex.step(st)
		for _, child := range children {
			ex.addState(child)
			if ex.stopped {
				return
			}
		}
		if suspend {
			st.Status = StatusSuspended
			ex.suspended = append(ex.suspended, st)
			ex.suspensions++
			if ex.hops != nil {
				ex.hops.Observe(int64(st.Diverted))
			}
			return
		}
		if done {
			ex.res.Paths++
			return
		}
		if ex.stopped || ex.res.Steps >= ex.Opts.MaxSteps {
			break
		}
	}
	if !ex.stopped {
		ex.sched.Add(st)
	}
}

// --- satisfiability plumbing ---

// branchCheckHook, when set, observes every satisfiability query before it
// is decided (tests use it to check the component bookkeeping).
var branchCheckHook func(ex *Executor, st *State, extra []solver.Constraint)

// sameModel reports whether a and b are the same (non-nil) model value.
func sameModel(a, b solver.Model) bool {
	return a != nil && b != nil && reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

func allHold(cons []solver.Constraint, m solver.Model) bool {
	for _, c := range cons {
		if !c.Holds(m) {
			return false
		}
	}
	return true
}

// satisfiable decides pc(st) ∧ extra. Shortcuts, cheapest first:
//
//  1. model check: the extras and every component not known to hold
//     already hold under the cached model;
//  2. bounds refutation: a single-variable extra contradicts the interval
//     the path condition implies for that variable;
//  3. disjoint solve: extras whose variables the path condition does not
//     mention are decided in isolation and their model merged;
//  4. component query: only the components the extras touch, and those
//     without a recorded model, are looked up (checkComponents).
func (ex *Executor) satisfiable(st *State, extra ...solver.Constraint) (bool, solver.Model) {
	if branchCheckHook != nil {
		branchCheckHook(ex, st, extra)
	}
	// Stamp the query with its origin function's content hash (persistence
	// attribution; see Options.OriginHashes). The model-check shortcut
	// below issues no solver query, so stamping first costs nothing there.
	if ex.Opts.OriginHashes != nil && len(st.Frames) > 0 {
		if fn := st.Frames[len(st.Frames)-1].Fn; fn.Index < len(ex.Opts.OriginHashes) {
			ex.Solver.Origin = ex.Opts.OriginHashes[fn.Index]
		}
	}
	if st.LastModel != nil && allHold(extra, st.LastModel) && st.pcHolds() {
		return true, st.LastModel
	}
	if ex.refutedByBounds(st, extra) {
		return false, nil
	}
	if st.LastModel != nil && ex.disjointFromPC(st, extra) {
		ctx := ex.runCtx()
		res, m := ex.Solver.CheckCtx(ctx, ex.Table, extra)
		switch res {
		case solver.Sat:
			merged := maps.Clone(st.LastModel)
			for k, v := range m {
				merged[k] = v
			}
			p := pendingVerdict{model: merged, extras: solver.DigestOf(extra), cache: ex.Solver}
			if ctx.Err() == nil && st.meta.cache == ex.Solver && len(groupExtras(st.pc, extra)) == 1 {
				p.groups = []pendingGroup{{key: constraintKey(extra[0]), digest: p.extras, model: m}}
			}
			st.notePending(p)
			return true, merged
		case solver.Unsat:
			return false, nil
		}
		// Unknown: fall through to the full query.
	}
	return ex.checkComponents(st, extra)
}

// queryItem is one conjunction a component query looks up: a path-condition
// component (root >= 0) or a group of extras together with the components
// they touch (group >= 0). first is its smallest constraint index, counting
// extras from len(st.Constraints), which orders items the way
// solver.Partition orders the components of pc ∧ extras.
type queryItem struct {
	first  int32
	root   int32
	group  int
	digest solver.Digest
	res    solver.Result
	model  solver.Model
}

// checkComponents decides pc(st) ∧ extra component by component. Each
// component of that conjunction is looked up in the solver cache in
// partition order unless the state already records the model this cache
// decided for it; one unsatisfiable component refutes the query. The
// returned model is the union of the component models — what a lookup of
// every component would have assembled.
func (ex *Executor) checkComponents(st *State, extra []solver.Constraint) (bool, solver.Model) {
	ctx := ex.runCtx()
	p := st.pc
	n := int32(len(st.Constraints))
	groups := groupExtras(p, extra)
	items := ex.items[:0]
	for gi, g := range groups {
		it := queryItem{first: n + int32(g.extras[0]), root: -1, group: gi}
		for _, r := range g.roots {
			c := p.comp(r)
			it.first = min(it.first, c.idx[0])
			it.digest = solver.Digest{Sum: it.digest.Sum + c.digest.Sum, N: it.digest.N + c.digest.N}
		}
		for _, j := range g.extras {
			it.digest = it.digest.Add(solver.HashConstraint(extra[j]))
		}
		items = append(items, it)
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
	// A component needs a lookup unless it records this cache's model. On a
	// cache the state is new to (a resumed state, another worker slot),
	// every component is examined; otherwise only the dirty ones can need
	// it.
	need := func(r int32, c *pcComp) bool {
		return ex.Solver.Disabled || c.model == nil || c.cache != ex.Solver
	}
	fullScan := ex.Solver.Disabled || st.meta.cache != ex.Solver
	if fullScan {
		p.roots(func(r int32, c *pcComp) {
			if need(r, c) && !inGroup(r) {
				items = append(items, queryItem{first: c.idx[0], root: r, group: -1, digest: c.digest})
			}
		})
	} else {
	dirty:
		for _, s := range st.meta.dirty {
			r := p.find(s)
			c := p.comp(r)
			if !need(r, c) || inGroup(r) {
				continue
			}
			for _, it := range items[len(groups):] {
				if it.root == r {
					continue dirty
				}
			}
			items = append(items, queryItem{first: c.idx[0], root: r, group: -1, digest: c.digest})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].first < items[j].first })
	ex.items = items

	recorded := true
	unknown, refuted := false, false
	for i := range items {
		it := &items[i]
		if it.root >= 0 {
			ex.cons = ex.compCons(st, it.root)
		} else {
			ex.cons = ex.compCons(st, groups[it.group].roots...)
			for _, j := range groups[it.group].extras {
				ex.cons = append(ex.cons, extra[j])
			}
		}
		it.res, it.model = ex.Solver.CheckDigestCtx(ctx, ex.Table, ex.cons, it.digest)
		if it.root >= 0 {
			if ctx.Err() != nil {
				recorded = false
			} else {
				c := st.pcw().compw(it.root)
				if it.res == solver.Sat {
					c.model, c.cache = it.model, ex.Solver
					st.markStale(it.root)
				} else {
					c.model, c.cache = nil, nil
				}
			}
		}
		if it.res == solver.Unsat {
			refuted = true
			break
		}
		if it.res == solver.Unknown {
			unknown = true
		}
	}
	if !refuted && fullScan && recorded && !ex.Solver.Disabled {
		// Every component now records this cache's model, except those the
		// extras touched: forget theirs if another cache decided them.
		for _, g := range groups {
			for _, r := range g.roots {
				if p.comp(r).cache != ex.Solver {
					c := st.pcw().compw(r)
					c.model, c.cache = nil, nil
				}
			}
		}
		st.meta.cache = ex.Solver
	}
	st.pruneDirty(fullScan)
	if refuted {
		return false, nil
	}
	if unknown {
		// Explore optimistically (sound for vulnerability search: definite
		// faults are still confirmed by concrete witnesses).
		return true, nil
	}
	// Every component is satisfiable: the model is the union of the group
	// models and every other component's recorded model (components are
	// variable-disjoint and a verdict model binds only its conjunction's
	// variables, so the union order is immaterial).
	model := st.unionModel(items, groups, recorded)
	pv := pendingVerdict{model: model, extras: solver.DigestOf(extra), full: true, cache: ex.Solver, stale: len(st.meta.stale)}
	if ctx.Err() == nil {
		for _, it := range items {
			if it.group >= 0 {
				g := groups[it.group]
				pv.groups = append(pv.groups, pendingGroup{key: constraintKey(extra[g.extras[0]]), digest: it.digest, model: it.model})
			}
		}
	}
	st.notePending(pv)
	return true, model
}

// compCons returns, in the executor's scratch buffer, the constraints of the
// components rooted at roots in path-condition order.
func (ex *Executor) compCons(st *State, roots ...int32) []solver.Constraint {
	cons := ex.cons[:0]
	switch len(roots) {
	case 0:
	case 1:
		for _, i := range st.pc.comp(roots[0]).idx {
			cons = append(cons, st.Constraints[i])
		}
	default:
		idx := ex.idx[:0]
		for _, r := range roots {
			idx = append(idx, st.pc.comp(r).idx...)
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		for _, i := range idx {
			cons = append(cons, st.Constraints[i])
		}
		ex.idx = idx
	}
	return cons
}

// extraGroup is one set of extras connected through shared variables,
// directly or through the path-condition components they touch (roots):
// one component of pc ∧ extras.
type extraGroup struct {
	roots  []int32
	extras []int
}

// groupExtras partitions the extras of a query into extraGroups, ordered by
// their first extra.
func groupExtras(p *pcIndex, extra []solver.Constraint) []extraGroup {
	if len(extra) == 0 {
		return nil
	}
	parent := make([]int, len(extra))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	// owner records the first extra seen with each key: a component root,
	// or a variable the path condition does not mention.
	type owner struct {
		root int32
		v    solver.Var
		j    int
	}
	var owners []owner
	link := func(root int32, v solver.Var, j int) {
		for _, o := range owners {
			if o.root == root && o.v == v {
				a, b := find(o.j), find(j)
				if a > b {
					a, b = b, a
				}
				parent[b] = a
				return
			}
		}
		owners = append(owners, owner{root: root, v: v, j: j})
	}
	key := func(v solver.Var, j int) {
		if r := p.rootOf(v); r >= 0 {
			link(r, 0, j)
		} else {
			link(-1, v, j)
		}
	}
	for j, c := range extra {
		if len(c.E.Terms) == 0 {
			key(groundVar, j)
		}
		for _, tm := range c.E.Terms {
			key(tm.Var, j)
		}
	}
	gi := make([]int, len(extra))
	var groups []extraGroup
	for j := range extra {
		if r := find(j); r == j {
			gi[j] = len(groups)
			groups = append(groups, extraGroup{})
		}
		g := &groups[gi[find(j)]]
		g.extras = append(g.extras, j)
	}
	for _, o := range owners {
		if o.root >= 0 {
			g := &groups[gi[find(o.j)]]
			g.roots = append(g.roots, o.root)
		}
	}
	return groups
}

// disjointFromPC reports whether no extra constraint mentions a variable
// of the path condition.
func (ex *Executor) disjointFromPC(st *State, extra []solver.Constraint) bool {
	for _, c := range extra {
		for _, tm := range c.E.Terms {
			if st.mentions(tm.Var) {
				return false
			}
		}
	}
	return true
}

// refutedByBounds reports a cheap contradiction: a single-variable extra
// constraint incompatible with the interval implied by the path condition
// plus the variable's intrinsic bounds.
func (ex *Executor) refutedByBounds(st *State, extra []solver.Constraint) bool {
	for _, c := range extra {
		v, coeff, single := c.E.SingleVar()
		if !single || (coeff != 1 && coeff != -1) {
			continue
		}
		b := st.bounds(v)
		info := ex.Table.Info(v)
		if info.HasLo && (!b.HasLo || info.Lo > b.Lo) {
			b.Lo, b.HasLo = info.Lo, true
		}
		if info.HasHi && (!b.HasHi || info.Hi < b.Hi) {
			b.Hi, b.HasHi = info.Hi, true
		}
		switch {
		case c.Op == solver.OpLe && coeff == 1: // v <= k
			if k := -c.E.Const; b.HasLo && b.Lo > k {
				return true
			}
		case c.Op == solver.OpLe && coeff == -1: // v >= k
			if k := c.E.Const; b.HasHi && b.Hi < k {
				return true
			}
		case c.Op == solver.OpEq:
			k := -c.E.Const
			if coeff == -1 {
				k = c.E.Const
			}
			if (b.HasLo && k < b.Lo) || (b.HasHi && k > b.Hi) {
				return true
			}
		case c.Op == solver.OpNe:
			k := -c.E.Const
			if coeff == -1 {
				k = c.E.Const
			}
			if b.HasLo && b.HasHi && b.Lo == k && b.Hi == k {
				return true
			}
		}
	}
	return false
}

// commit appends constraints to the path condition and installs the model
// that witnesses them. A model satisfiable returned for exactly these
// constraints also records the component models it decided.
func (ex *Executor) commit(st *State, m solver.Model, cons ...solver.Constraint) {
	var pv *pendingVerdict
	if m != nil && !sameModel(m, st.LastModel) {
		if p := st.takePending(m, cons); p != nil {
			cp := *p
			pv = &cp
		}
		st.setModel(m, pv)
	}
	for _, c := range cons {
		addPathConstraint(st, c)
	}
	if pv != nil {
		st.recordModels(pv)
	}
}

// TryAddConstraints applies predicate constraints to a state if they are
// consistent with its path condition; reports whether they were applied.
// Used by the guidance hook for intra-function predicate gating (§VI-C).
func (ex *Executor) TryAddConstraints(st *State, cons []solver.Constraint) bool {
	if len(cons) == 0 {
		return true
	}
	ok, m := ex.satisfiable(st, cons...)
	if !ok {
		return false
	}
	ex.commit(st, m, cons...)
	return true
}

// seedModelValue installs a seed assignment into a state's cached model
// without disturbing solver-derived bindings. It only creates a model when
// the path condition is still empty (so the invariant "the cached model
// satisfies the path condition" holds trivially) and never overwrites an
// existing binding.
func (ex *Executor) seedModelValue(st *State, v solver.Var, val int64) {
	if st.LastModel == nil {
		if len(st.Constraints) > 0 {
			return
		}
		st.changeModel(solver.Model{v: val})
		return
	}
	if _, exists := st.LastModel[v]; exists {
		return
	}
	ex.extendModel(st, v, val)
}

// maybeSeedStr seeds a symbolic string's length (and records the value for
// byte seeding) when a seed input supplies the channel.
func (ex *Executor) maybeSeedStr(st *State, v Value, kind byte, name string, argIdx int64) {
	if v.Kind != KindString || v.Str == nil || v.Str.IsLit {
		return
	}
	seed, ok := ex.inputs.seedStr(kind, name, argIdx)
	if !ok {
		return
	}
	ex.inputs.noteSeedStr(v.Str.ID, seed)
	ex.seedModelValue(st, v.Str.LenVar, int64(len(seed)))
}

// extendModel installs var=val into the state's cached model (copy on
// write: models are shared across forks).
func (ex *Executor) extendModel(st *State, v solver.Var, val int64) {
	if st.LastModel == nil {
		return
	}
	nm := make(solver.Model, len(st.LastModel)+1)
	for k, x := range st.LastModel {
		nm[k] = x
	}
	nm[v] = val
	st.changeModel(nm, v)
}

// addPathConstraint appends c, compacting single-variable bounds so loop
// chains do not grow the path condition linearly (x ≥ 6 subsumes x ≥ 5).
// Only v's component can hold a constraint over v, so the compaction scan
// stays inside it.
func addPathConstraint(st *State, c solver.Constraint) {
	if c.IsTriviallyTrue() {
		return
	}
	if v, coeff, ok := c.E.SingleVar(); ok && (coeff == 1 || coeff == -1) && c.Op == solver.OpLe {
		if r := st.pc.rootOf(v); r >= 0 {
			for _, i := range st.pc.comp(r).idx {
				old := st.Constraints[i]
				if old.Op != solver.OpLe {
					continue
				}
				ov, ocoeff, ook := old.E.SingleVar()
				if !ook || ov != v || ocoeff != coeff {
					continue
				}
				// Same form: coeff·v + k ≤ 0. Larger k is tighter.
				st.pcw().noteBound(v, coeff, c)
				if c.E.Const >= old.E.Const {
					st.replaceConstraint(int(i), c)
				}
				return
			}
		}
	}
	st.appendConstraint(c)
}

// --- vulnerability reporting ---

func (ex *Executor) report(st *State, kind interp.FaultKind, pos minic.Pos, m solver.Model, extra ...solver.Constraint) {
	if m == nil {
		// Unknown-model detection: confirm with a full query.
		ok, mm := ex.satisfiable(st, extra...)
		if !ok || mm == nil {
			return
		}
		m = mm
	}
	cons := make([]solver.Constraint, 0, len(st.Constraints)+len(extra))
	cons = append(cons, st.Constraints...)
	cons = append(cons, extra...)
	path := make([]trace.Location, len(st.Trace))
	copy(path, st.Trace)
	v := &Vulnerability{
		Kind:        kind,
		Func:        st.CurrentFunc(),
		Pos:         pos,
		Path:        path,
		Constraints: cons,
		Model:       m,
		Witness:     ex.inputs.witness(m),
	}
	for _, prev := range ex.res.Vulns {
		if prev.Site() == v.Site() {
			return
		}
	}
	ex.res.Vulns = append(ex.res.Vulns, v)
	if ex.Opts.StopAtFirstVuln {
		ex.stopped = true
	}
}

// SymbolicInputs lists the symbolic channels registered so far.
func (ex *Executor) SymbolicInputs() []string { return ex.inputs.symbolicInputNames() }

// fireLocation records a location crossing and runs the guidance hook.
func (ex *Executor) fireLocation(st *State, loc trace.Location, ret *Value) HookDecision {
	st.Trace = append(st.Trace, loc)
	if ex.Opts.Hook == nil {
		return HookContinue
	}
	view := &VarView{ex: ex, st: st, loc: loc, ret: ret}
	return ex.Opts.Hook(ex, st, loc, view)
}

// VarView resolves logged-variable names to runtime values at a location,
// mirroring what the monitor records (globals, parameters, return value).
// The guidance hook uses it to turn statistical predicates into solver
// constraints over the state's live values.
type VarView struct {
	ex  *Executor
	st  *State
	loc trace.Location
	ret *Value
}

// Param returns the named parameter of the function just entered.
func (v *VarView) Param(name string) (Value, bool) {
	if v.loc.Kind != trace.EventEnter {
		return Value{}, false
	}
	fr := v.st.Top()
	for i, pn := range fr.Fn.ParamNames {
		if pn == name {
			return fr.Locals[i], true
		}
	}
	return Value{}, false
}

// Global returns the named global's current value.
func (v *VarView) Global(name string) (Value, bool) {
	idx := v.ex.Prog.GlobalIndex(name)
	if idx < 0 {
		return Value{}, false
	}
	return v.st.Globals[idx], true
}

// Return returns the function's return value at an exit location.
func (v *VarView) Return() (Value, bool) {
	if v.loc.Kind != trace.EventLeave || v.ret == nil {
		return Value{}, false
	}
	return *v.ret, true
}

// Result returns the (live) result record; final after Run returns.
func (ex *Executor) Result() *Result { return ex.res }

// Coverage reports the fraction of each function's instructions executed
// at least once across all explored states (the $init function is
// excluded). The paper's §VI-C notes StatSym preserves the baseline's
// code-coverage capability; this surfaces the measurement.
func (ex *Executor) Coverage() map[string]float64 {
	out := make(map[string]float64, len(ex.Prog.Funcs))
	for _, fn := range ex.Prog.Funcs {
		if fn.Name == bytecode.InitFuncName || len(fn.Code) == 0 {
			continue
		}
		visited := 0
		if v := ex.visits[fn.Index]; v != nil {
			for _, count := range v {
				if count > 0 {
					visited++
				}
			}
		}
		out[fn.Name] = float64(visited) / float64(len(fn.Code))
	}
	return out
}

// TotalCoverage is the instruction-weighted aggregate of Coverage.
func (ex *Executor) TotalCoverage() float64 {
	total, visited := 0, 0
	for _, fn := range ex.Prog.Funcs {
		if fn.Name == bytecode.InitFuncName {
			continue
		}
		total += len(fn.Code)
		if v := ex.visits[fn.Index]; v != nil {
			for _, count := range v {
				if count > 0 {
					visited++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(visited) / float64(total)
}
