package core

import (
	"context"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/pathid"
	"repro/internal/symexec"
)

// Candidate verification: the Fig. 5 loop as a rank-queue scheduler.
//
// The attempts are independent symbolic executions (each builds its own
// executor, solver, and guidance state over the shared read-only program),
// so one scheduler serves every topology. Local slots — one for the
// sequential loop, N for Parallel=N — and, under Dispatch, one puller per
// connected worker process all drain one queue of ranks. The scheduler
// preserves the sequential loop's semantics exactly:
//
//   - ranks are fed to the queue in order;
//   - when the candidate at rank r verifies the vulnerability, every
//     higher-ranked sibling (rank > r) is cancelled — they could only be
//     reached after a rank-r failure, which now cannot happen. Candidates
//     ranked below r keep running: one of them may succeed at an even
//     lower rank, which is the answer the sequential loop would give;
//   - outcomes merge in rank order up to and including the lowest
//     successful rank (mergeAttempts), so Report.Candidates, CandidateUsed,
//     TotalPaths, and TotalSteps are byte-identical for every topology
//     whenever the per-candidate budgets are deterministic (step/state
//     bounds). Wall-clock budgets remain timing-dependent;
//   - a caller cancellation mirrors the sequential loop's accounting: the
//     lowest-ranked attempt caught mid-flight is recorded with its partial
//     counters (Cancelled=true) and everything after it is discarded.

// rankQueue holds one verification run's per-rank state: the attempt
// records the merge replays, per-rank contexts, and the winning rank.
type rankQueue struct {
	prog  *bytecode.Program
	cands []*pathid.CandidatePath
	cfg   Config

	attempts []attempt
	ctxs     []context.Context
	cancels  []context.CancelFunc

	mu     sync.Mutex
	winner int // lowest successful 1-based rank so far (0: none)
}

// verifyCandidates verifies cands on min(max(1, Parallel), len(cands))
// local slots plus, when cfg.Dispatch is set, one puller per dialled
// worker, and merges the outcomes into rep deterministically.
func verifyCandidates(ctx context.Context, prog *bytecode.Program, cands []*pathid.CandidatePath, cfg Config, rep *Report) {
	if len(cands) == 0 {
		return
	}
	q := &rankQueue{
		prog:     prog,
		cands:    cands,
		cfg:      cfg,
		attempts: make([]attempt, len(cands)),
		ctxs:     make([]context.Context, len(cands)),
		cancels:  make([]context.CancelFunc, len(cands)),
	}
	for i := range cands {
		q.ctxs[i], q.cancels[i] = context.WithCancel(ctx)
	}
	defer func() {
		for _, cancel := range q.cancels {
			cancel()
		}
	}()

	indices := make(chan int)
	var wg sync.WaitGroup
	// Feeding starts only after every puller is parked at the queue
	// (ready.Wait below). Without the barrier, a single-core scheduler can
	// let the first local slot drain the whole queue before a worker
	// goroutine ever runs — turning every remote topology into a de facto
	// local run. With it, the first sends hand one rank to each parked
	// puller, so connected workers always get a chance to steal.
	var ready sync.WaitGroup
	pull := func(run func(i int)) {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for i := range indices {
				if q.claimable(i) {
					run(i)
				}
			}
		}()
	}

	var d *dispatcher
	runLocal := q.runLocal
	if cfg.Dispatch {
		d = newDispatcher(ctx, q)
		defer d.close()
		runLocal = d.runLocal
	}
	slots := min(max(1, cfg.Parallel), len(cands))
	for s := 0; s < slots; s++ {
		pull(runLocal)
	}
	if d != nil {
		for _, run := range d.dial(cfg.WorkerAddrs) {
			pull(run)
		}
	}

	ready.Wait()
	for i := range cands {
		indices <- i
	}
	close(indices)
	wg.Wait()

	mergeAttempts(rep, q.attempts)
	if d != nil {
		d.finish(rep)
	}
}

// claimable reports whether rank i+1 is still worth starting: no lower
// rank has won and its context is alive.
func (q *rankQueue) claimable(i int) bool {
	q.mu.Lock()
	beyondWinner := q.winner != 0 && i+1 > q.winner
	q.mu.Unlock()
	return !beyondWinner && q.ctxs[i].Err() == nil
}

// runLocal verifies rank i+1 in this process.
func (q *rankQueue) runLocal(i int) {
	outcome, vuln := VerifyCandidateCtx(q.ctxs[i], q.prog, q.cands[i], i+1, q.cfg)
	q.record(i, outcome, vuln)
}

// record stores rank i+1's outcome; a success cancels every higher rank.
func (q *rankQueue) record(i int, outcome CandidateOutcome, vuln *symexec.Vulnerability) {
	q.attempts[i] = attempt{outcome: outcome, vuln: vuln, complete: !outcome.Cancelled}
	if vuln == nil {
		return
	}
	rank := i + 1
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.winner != 0 && q.winner <= rank {
		return
	}
	q.winner = rank
	for j := rank; j < len(q.cancels); j++ {
		q.cancels[j]()
	}
}

// attempt records one candidate verification for the rank-order merge.
type attempt struct {
	outcome  CandidateOutcome
	vuln     *symexec.Vulnerability
	complete bool // ran to its own stop condition, not cancelled/skipped
}

// started reports whether the attempt actually ran (a zero attempt is a
// rank that was skipped before starting — beyond the winner, or after the
// caller's context died).
func (a *attempt) started() bool { return a.outcome.Index != 0 }

// mergeAttempts replays the sequential loop over the recorded attempts so
// the merged report is deterministic and rank-ordered:
//
//   - complete attempts accumulate in rank order up to and including the
//     first success, exactly like the Fig. 5 loop;
//   - ranks past the first success are discarded — the sequential loop
//     never runs them, so their counters (including any partial work done
//     before the first-success cancel reached them) must not leak into
//     TotalPaths/TotalSteps;
//   - an incomplete attempt below the winner means the caller's context
//     died mid-flight. The sequential loop records that in-flight attempt
//     with its partial counters and Cancelled=true before stopping, so
//     the merge includes the first such attempt (and only the first: a
//     sequential run has exactly one attempt in flight when the cancel
//     lands) and stops there.
func mergeAttempts(rep *Report, attempts []attempt) {
	for i := range attempts {
		a := &attempts[i]
		if !a.complete {
			if a.started() && a.outcome.Cancelled {
				rep.addOutcome(a.outcome)
			}
			break
		}
		rep.addOutcome(a.outcome)
		if a.vuln != nil {
			rep.Vuln = a.vuln
			rep.CandidateUsed = i + 1
			break
		}
	}
}
