package core

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/dispatch"
	"repro/internal/symexec/snapshot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// dispatchApps is the five-app differential surface: every evaluation
// workload the digest invariant is pinned on.
var dispatchApps = []string{"polymorph", "ctree", "thttpd", "grep", "msgtool"}

// startCoreWorker serves real attempt units (NewDispatchRunner) on a unix
// socket, exactly like `symexec -serve-worker` does in its own process.
func startCoreWorker(t *testing.T, wc WorkerConfig) string {
	t.Helper()
	addr := filepath.Join(t.TempDir(), "w.sock")
	l, err := dispatch.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go dispatch.Serve(l, NewDispatchRunner(wc))
	t.Cleanup(func() { l.Close() })
	return addr
}

func dispatchCorpus(t *testing.T, name string) (*apps.App, *trace.Corpus) {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return app, corpus
}

// requireSameOutcomes compares two reports field-for-field the way the
// parallel determinism test does: everything must match except the
// wall-clock fields (Elapsed, SolverTime) and the dispatch telemetry.
func requireSameOutcomes(t *testing.T, label string, ref, got *Report) {
	t.Helper()
	if rd, gd := DetectionDigest(ref), DetectionDigest(got); rd != gd {
		t.Errorf("%s: detection digest diverged:\n--- reference ---\n%s--- %s ---\n%s", label, rd, label, gd)
	}
	if got.TotalPaths != ref.TotalPaths || got.TotalSteps != ref.TotalSteps {
		t.Errorf("%s: totals diverged: reference (%d paths, %d steps), got (%d paths, %d steps)",
			label, ref.TotalPaths, ref.TotalSteps, got.TotalPaths, got.TotalSteps)
	}
	if len(got.Candidates) != len(ref.Candidates) {
		t.Fatalf("%s: attempted candidates: reference %d, got %d", label, len(ref.Candidates), len(got.Candidates))
	}
	for i := range ref.Candidates {
		r, g := ref.Candidates[i], got.Candidates[i]
		r.Elapsed, g.Elapsed = 0, 0
		r.SolverTime, g.SolverTime = 0, 0
		if r != g {
			t.Errorf("%s: candidate %d outcome diverged:\n  reference %+v\n  got       %+v", label, i+1, r, g)
		}
	}
}

// TestDispatchDifferential pins the tentpole invariant on all five
// evaluation apps: the detection digest (and every deterministic outcome
// counter) is byte-identical whether candidates are verified by the
// sequential loop, a local-only dispatch pool, one or two real worker
// processes, or a mixed topology with local parallelism — and at least one
// unit is actually stolen by a worker across the sweep.
func TestDispatchDifferential(t *testing.T) {
	totalRemote := 0
	for _, name := range dispatchApps {
		t.Run(name, func(t *testing.T) {
			app, corpus := dispatchCorpus(t, name)
			base := Config{Spec: app.Spec}
			ref, err := Run(app.Program(), corpus, base)
			if err != nil {
				t.Fatal(err)
			}

			w1 := startCoreWorker(t, WorkerConfig{})
			w2 := startCoreWorker(t, WorkerConfig{})
			topologies := []struct {
				label string
				cfg   func(Config) Config
			}{
				{"dispatch-local-only", func(c Config) Config { c.Dispatch = true; return c }},
				{"dispatch-1-worker", func(c Config) Config { c.Dispatch = true; c.WorkerAddrs = []string{w1}; return c }},
				{"dispatch-2-workers", func(c Config) Config { c.Dispatch = true; c.WorkerAddrs = []string{w1, w2}; return c }},
				{"dispatch-mixed", func(c Config) Config {
					c.Dispatch = true
					c.WorkerAddrs = []string{w1, w2}
					c.Parallel = 2
					return c
				}},
			}
			for _, topo := range topologies {
				got, err := Run(app.Program(), corpus, topo.cfg(base))
				if err != nil {
					t.Fatalf("%s: %v", topo.label, err)
				}
				requireSameOutcomes(t, topo.label, ref, got)
				totalRemote += got.DispatchRemote
			}
		})
	}
	if totalRemote == 0 {
		t.Error("no unit was ever stolen by a worker across the whole differential sweep")
	}
}

// TestDispatchWorkerCrashRecovery kills the worker mid-unit — the
// connection drops after the unit is accepted, as if the process died — and
// requires (a) the unit to be re-dispatched locally, and (b) the detection
// digest to stay byte-identical: a lost worker costs speed, never a
// detection.
func TestDispatchWorkerCrashRecovery(t *testing.T) {
	app, corpus := dispatchCorpus(t, "polymorph")
	base := Config{Spec: app.Spec}
	ref, err := Run(app.Program(), corpus, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.PathRes.Candidates) < 2 {
		t.Fatalf("crash test needs >= 2 candidates to guarantee a steal, got %d", len(ref.PathRes.Candidates))
	}

	// A worker that crashes on every unit: handshake, accept the unit,
	// slam the connection shut without replying.
	addr := filepath.Join(t.TempDir(), "crash.sock")
	l, err := dispatch.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				snapshot.ReadFrame(conn)
				snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte(dispatch.Magic))
				snapshot.ReadFrame(conn) // accept the unit, then "die"
			}(conn)
		}
	}()

	cfg := base
	cfg.Dispatch = true
	cfg.WorkerAddrs = []string{addr}
	// The digest must match on every run; the steal itself is guaranteed
	// by the readiness barrier, but a few retries keep the assertion
	// immune to scheduler pathology on loaded single-core hosts.
	redispatched := 0
	for try := 0; try < 5 && redispatched == 0; try++ {
		got, err := Run(app.Program(), corpus, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameOutcomes(t, "crashing-worker", ref, got)
		if got.DispatchRemote != 0 {
			t.Errorf("crashing worker completed %d units", got.DispatchRemote)
		}
		redispatched = got.DispatchRedispatched
	}
	if redispatched < 1 {
		t.Error("no unit was ever re-dispatched locally after the worker crash")
	}
}

// TestDispatchDeadlineRecovery: a hung worker (accepts the unit, never
// replies) must be cut off by UnitDeadline and its unit re-run locally,
// with the digest unchanged.
func TestDispatchDeadlineRecovery(t *testing.T) {
	app, corpus := dispatchCorpus(t, "polymorph")
	base := Config{Spec: app.Spec}
	ref, err := Run(app.Program(), corpus, base)
	if err != nil {
		t.Fatal(err)
	}

	addr := filepath.Join(t.TempDir(), "hung.sock")
	l, err := dispatch.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				snapshot.ReadFrame(conn)
				snapshot.WriteFrame(conn, snapshot.FrameHelloAck, []byte(dispatch.Magic))
				snapshot.ReadFrame(conn)     // accept the unit...
				time.Sleep(30 * time.Second) // ...and hang well past the deadline
			}(conn)
		}
	}()

	cfg := base
	cfg.Dispatch = true
	cfg.WorkerAddrs = []string{addr}
	cfg.UnitDeadline = 200 * time.Millisecond
	got, err := Run(app.Program(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameOutcomes(t, "hung-worker", ref, got)
	if got.DispatchRemote != 0 {
		t.Errorf("hung worker completed %d units", got.DispatchRemote)
	}
}

// TestAttemptUnitRoundTrip: the attempt unit and result codecs invert.
func TestAttemptUnitRoundTrip(t *testing.T) {
	app, corpus := dispatchCorpus(t, "polymorph")
	cfg := Config{Spec: app.Spec, Tau: 7, MinPredScore: 0.25,
		PerCandidateMaxSteps: 12345, MaxStates: 99, Workers: 3, Scope: "all", Summaries: true}
	rep, err := Run(app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PathRes.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	cand := rep.PathRes.Candidates[0]
	payload := EncodeAttemptUnit(app.Program(), cand, 3, cfg)
	prog2, cand2, rank, cfg2, err := DecodeAttemptUnit(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 3 || prog2.Name != app.Program().Name {
		t.Fatalf("rank=%d prog=%q", rank, prog2.Name)
	}
	if cfg2.Tau != 7 || cfg2.MinPredScore != 0.25 || cfg2.PerCandidateMaxSteps != 12345 ||
		cfg2.MaxStates != 99 || cfg2.Workers != cfg.effectiveWorkers() ||
		cfg2.Scope != "all" || !cfg2.Summaries {
		t.Fatalf("config diverged: %+v", cfg2)
	}
	if cand2.Len() != cand.Len() {
		t.Fatalf("candidate length %d, want %d", cand2.Len(), cand.Len())
	}

	out := CandidateOutcome{Index: 3, PathLen: 9, Found: true, Paths: 4, Steps: 1000,
		Suspends: 2, Matches: 8, Elapsed: time.Second, SolverChecks: 17, CacheHits: 5,
		CacheMisses: 12, SolverTime: time.Millisecond, SummaryCalls: 1}
	blob := encodeAttemptResult(out, nil)
	out2, vuln, err := decodeAttemptResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if vuln != nil || out2 != out {
		t.Fatalf("result round trip diverged:\n  in  %+v\n  out %+v", out, out2)
	}
}

// TestDispatchLogWritten: the -dispatch-log JSONL audit trail carries only
// known events and ends with exactly one merge line.
func TestDispatchLogWritten(t *testing.T) {
	app, corpus := dispatchCorpus(t, "polymorph")
	w := startCoreWorker(t, WorkerConfig{})
	logPath := filepath.Join(t.TempDir(), "dispatch.jsonl")
	cfg := Config{Spec: app.Spec, Dispatch: true, WorkerAddrs: []string{w}, DispatchLog: logPath}
	if _, err := Run(app.Program(), corpus, cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	merges, lines := 0, 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev DispatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		if !KnownDispatchEvents[ev.Event] {
			t.Fatalf("line %d: unknown event %q", lines, ev.Event)
		}
		if ev.T.IsZero() {
			t.Fatalf("line %d: missing timestamp", lines)
		}
		if ev.Event == "merge" {
			merges++
		}
	}
	if lines < 2 {
		t.Fatalf("dispatch log has %d lines, want at least dial+merge", lines)
	}
	if merges != 1 {
		t.Fatalf("dispatch log has %d merge lines, want 1", merges)
	}
}

// TestDispatchWorkerSurvivesPanickingUnit: an attempt unit that decodes
// cleanly but carries one corrupted store.l operand faults the executor
// with an index out of range. The worker must answer it with an error frame
// and then serve the next, good unit on the same connection correctly.
func TestDispatchWorkerSurvivesPanickingUnit(t *testing.T) {
	app, corpus := dispatchCorpus(t, "polymorph")
	cfg := Config{Spec: app.Spec}
	rep, err := Run(app.Program(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PathRes.Candidates) == 0 || rep.Vuln == nil {
		t.Fatal("reference run found no candidate or no vulnerability")
	}
	cand := rep.PathRes.Candidates[rep.CandidateUsed-1]

	// Corrupt the first store.l of main, which every attempt executes.
	prog := *app.Program()
	prog.Funcs = append([]*bytecode.Fn(nil), prog.Funcs...)
	mainFn := *prog.Funcs[prog.MainIndex]
	mainFn.Code = append([]bytecode.Instr(nil), mainFn.Code...)
	corrupted := false
	for i, in := range mainFn.Code {
		if in.Op == bytecode.OpStoreLocal {
			mainFn.Code[i].A = 1 << 20
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("main has no store.l to corrupt")
	}
	prog.Funcs[prog.MainIndex] = &mainFn
	bad := EncodeAttemptUnit(&prog, cand, rep.CandidateUsed, cfg)
	if _, _, _, _, err := DecodeAttemptUnit(bad); err != nil {
		t.Fatalf("corrupted unit must decode cleanly: %v", err)
	}
	good := EncodeAttemptUnit(app.Program(), cand, rep.CandidateUsed, cfg)

	c, err := dispatch.Dial(startCoreWorker(t, WorkerConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(snapshot.FrameAttemptUnit, bad, time.Minute); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("corrupted unit: err = %v, want a panic reported as a unit error", err)
	}
	out, err := c.Do(snapshot.FrameAttemptUnit, good, time.Minute)
	if err != nil {
		t.Fatalf("good unit after the panic: %v", err)
	}
	res, vuln, err := decodeAttemptResult(out)
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Candidates[rep.CandidateUsed-1]
	if !res.Found || vuln == nil || res.Steps != want.Steps || res.Paths != want.Paths {
		t.Fatalf("good unit result %+v (vuln %v), want found with %d steps, %d paths", res, vuln != nil, want.Steps, want.Paths)
	}
}
