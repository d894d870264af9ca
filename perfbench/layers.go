package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Span names the harness records around each layer call. "solver" is the
// pipeline's own per-attempt span (core.VerifyCandidateCtx emits it as a
// child of its verify span), whose duration is the attempt's solver wall.
const (
	spanAnalysis = "bench.analysis"
	spanMonitor  = "bench.monitor"
	spanStats    = "bench.stats"
	spanPathid   = "bench.pathid"
	spanVerify   = "bench.verify"
	spanSolver   = "solver"
)

// runtimeSample is a reading of the runtime/metrics the harness reports.
type runtimeSample struct {
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// layerTotals accumulates the per-layer work counters of a traced pass.
type layerTotals struct {
	logBytes                           int64
	monitorAlloc, statsAlloc, symAlloc uint64
	predicates, candidates, detours    int
	attempts, found, suspensions       int
	steps, abandonedSteps              int64
	checks, lookups, hits              int
}

// tracedAnalysis runs one analysis by calling each layer's public function
// in turn — monitor, statistics, path construction, then one guided
// attempt per candidate in rank order until one verifies — with a span
// and a runtime/metrics reading around every call. It mirrors the
// sequential pipeline of core.RunContext.
func tracedAnalysis(ctx context.Context, ref *reference, w *workloadSpec, an analysis, t *layerTotals) outcome {
	ctx, root := obs.StartSpan(ctx, spanAnalysis, obs.A("app", an.app.Name), obs.A("corpus_seed", an.seed))
	defer root.End()
	start := time.Now()
	cfg := w.coreConfig(an.app)
	prog := an.app.Program()

	mctx, sp := obs.StartSpan(ctx, spanMonitor)
	r0 := readRuntime()
	corpus, err := workload.BuildCorpusCtx(mctx, an.app, w.corpusOptions(an.seed))
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return outcome{an: an, problem: err.Error()}
	}
	logBytes := corpus.SizeBytes()
	r1 := readRuntime()
	sp.End(obs.A("runs", len(corpus.Runs)), obs.A("log_bytes", logBytes))
	t.logBytes += int64(logBytes)
	t.monitorAlloc += r1.allocBytes - r0.allocBytes

	_, sp = obs.StartSpan(ctx, spanStats)
	analysisRes := stats.Analyze(corpus)
	r2 := readRuntime()
	sp.End(obs.A("predicates", len(analysisRes.Predicates)))
	t.statsAlloc += r2.allocBytes - r1.allocBytes
	t.predicates += len(analysisRes.Predicates)

	_, sp = obs.StartSpan(ctx, spanPathid)
	pres, err := pathid.Build(corpus, analysisRes, cfg.Path)
	if err != nil {
		sp.End(obs.A("error", err.Error()))
		return outcome{an: an, problem: err.Error()}
	}
	sp.End(obs.A("candidates", len(pres.Candidates)), obs.A("detours", len(pres.Detours)))
	t.candidates += len(pres.Candidates)
	t.detours += len(pres.Detours)

	rep := &core.Report{Program: prog.Name, Analysis: analysisRes, PathRes: pres}
	for i, cand := range pres.Candidates {
		vctx, sp := obs.StartSpan(ctx, spanVerify, obs.A("rank", i+1))
		a0 := readRuntime()
		out, vuln := core.VerifyCandidateCtx(vctx, prog, cand, i+1, cfg)
		a1 := readRuntime()
		sp.End(obs.A("outcome", out.Label()), obs.A("steps", out.Steps))
		t.symAlloc += a1.allocBytes - a0.allocBytes
		t.attempts++
		t.suspensions += out.Suspends
		t.steps += out.Steps
		if vuln == nil {
			t.abandonedSteps += out.Steps
		}
		t.checks += out.SolverChecks
		t.lookups += out.CacheHits + out.CacheMisses
		t.hits += out.CacheHits
		rep.Candidates = append(rep.Candidates, out)
		rep.TotalSteps += out.Steps
		if vuln != nil {
			rep.Vuln = vuln
			rep.CandidateUsed = i + 1
			break
		}
	}
	o := summarize(ref, an, rep, time.Since(start))
	if o.found {
		t.found++
	}
	return o
}

// spanTotals sums span durations by name from recorded events.
func spanTotals(events []obs.Event) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, ev := range events {
		if ev.Type == obs.EventSpanClose {
			out[ev.Name] += time.Duration(ev.DurUS) * time.Microsecond
		}
	}
	return out
}

// layerSpans are the spans whose durations make up a traced analysis's
// layer self times; "solver" nests inside "bench.verify" and is not
// counted twice.
var layerSpans = []string{spanMonitor, spanStats, spanPathid, spanVerify}

// tracedCLI is the traced pass of a CLI workload: it re-runs the timed
// batch layer by layer under recorded spans, derives each layer's self
// time from the spans, checks that the layers account for the untraced
// run time and that every deterministic counter repeats, validates the
// trace with tracecheck, and fills the per-layer metrics.
//
// Each traced analysis is paired with an untraced run of the same analysis
// right before or right after it (the order alternates, so neither side
// always runs on the heap the other left), so a change in the host's speed
// between the scan and the traced pass does not pass for tracing overhead.
// The comparisons add up, per batch analysis, the fastest of its repeats on
// each side: back-to-back runs of one analysis differ by up to a fifth on a
// shared host, mostly by interference that only slows a run down.
func tracedCLI(ctx context.Context, opts options, ref *reference, w *workloadSpec, untraced *batch, measure time.Duration, rep *report) error {
	rec := &obs.Recorder{}
	o := obs.New(rec)
	tctx := obs.NewContext(ctx, o)
	var t layerTotals
	var rt runtimeSample // runtime/metrics deltas summed over traced analyses
	// fastest holds, per batch analysis, the fastest untraced run, traced
	// run and layer self-time sum over the repeats.
	fastest := make([]struct{ untraced, traced, layers time.Duration }, len(untraced.passes[0]))
	keepMin := func(d *time.Duration, v time.Duration) {
		if *d == 0 || v < *d {
			*d = v
		}
	}
	passes, pairs := 0, 0
	start := time.Now()
	for passes < 1 || (w.Kind == kindPasses && time.Since(start) < measure) {
		if ctx.Err() != nil {
			break
		}
		for i, u := range untraced.passes[0] {
			var again, got outcome
			var layers time.Duration
			traced := func() {
				debug.FreeOSMemory() // as endToEnd does before each analysis
				n0 := len(rec.Events())
				r0 := readRuntime()
				got = tracedAnalysis(tctx, ref, w, u.an, &t)
				r1 := readRuntime()
				rt.allocBytes += r1.allocBytes - r0.allocBytes
				rt.gcCPU += r1.gcCPU - r0.gcCPU
				rt.totalCPU += r1.totalCPU - r0.totalCPU
				spans := spanTotals(rec.Events()[n0:])
				for _, name := range layerSpans {
					layers += spans[name]
				}
			}
			if pairs%2 == 0 {
				again = endToEnd(ctx, ref, w, u.an)
				traced()
			} else {
				traced()
				again = endToEnd(ctx, ref, w, u.an)
			}
			for _, o := range []outcome{again, got} {
				if o.problem != "" {
					rep.problem("traced pass %s: %s", o.an.key(), o.problem)
				}
				if o.counters() != u.counters() {
					rep.problem("determinism: %s repeated: %s, first: %s", u.an.key(), o.counters(), u.counters())
				}
			}
			f := &fastest[i]
			keepMin(&f.untraced, again.wall)
			keepMin(&f.traced, got.wall)
			keepMin(&f.layers, layers)
			pairs++
		}
		passes++
	}
	n := float64(passes)
	snap := o.Metrics.Snapshot()
	spans := spanTotals(rec.Events())

	perBatch := func(d time.Duration) float64 { return d.Seconds() / n }
	monitorS := perBatch(spans[spanMonitor])
	statsS := perBatch(spans[spanStats])
	pathidS := perBatch(spans[spanPathid])
	solverS := perBatch(spans[spanSolver])
	symS := perBatch(spans[spanVerify]) - solverS
	harnessS := perBatch(spans[spanAnalysis]) - (monitorS + statsS + pathidS + symS + solverS)
	var untracedS, tracedS, layersS float64
	for _, f := range fastest {
		untracedS += f.untraced.Seconds()
		tracedS += f.traced.Seconds()
		layersS += f.layers.Seconds()
	}
	fmt.Fprintf(rep.log, "-- layer self time per batch: monitor %.3fs stats %.3fs pathid %.3fs symexec %.3fs solver %.3fs harness %.3fs\n",
		monitorS, statsS, pathidS, symS, solverS, harnessS)
	fmt.Fprintf(rep.log, "-- batch over the fastest of %d repeat(s) per analysis: layers %.3fs, traced %.3fs, untraced %.3fs\n",
		passes, layersS, tracedS, untracedS)
	if dev := layersS/untracedS - 1; dev > ref.TraceSumTolerance || dev < -ref.TraceSumTolerance {
		rep.problem("layer self times add up to %.3fs, %+.1f%% off the untraced batch %.3fs (tolerance %.0f%%)",
			layersS, 100*dev, untracedS, 100*ref.TraceSumTolerance)
	}
	if err := checkTrace(ctx, opts, rec.Events(), rep); err != nil {
		return err
	}

	perN := func(v float64) float64 { return v / n }
	mb := func(b uint64) float64 { return float64(b) / n / 1e6 }
	rep.setLayer("monitor.busy_s", monitorS, "s")
	rep.setLayer("monitor.runs", perN(float64(snap[obs.MetricMonitorRuns])), "count")
	rep.setLayer("monitor.records", perN(float64(snap[obs.MetricMonitorRecords])), "count")
	rep.setLayer("monitor.log_mb", perN(float64(t.logBytes)/1e6), "MB")
	rep.setLayer("monitor.alloc_mb", mb(t.monitorAlloc), "MB")
	rep.setLayer("stats.busy_s", statsS, "s")
	rep.setLayer("stats.predicates", perN(float64(t.predicates)), "count")
	rep.setLayer("stats.alloc_mb", mb(t.statsAlloc), "MB")
	rep.setLayer("pathid.busy_s", pathidS, "s")
	rep.setLayer("pathid.candidates", perN(float64(t.candidates)), "count")
	rep.setLayer("pathid.detours", perN(float64(t.detours)), "count")
	rep.setLayer("core.attempts", perN(float64(t.attempts)), "count")
	rep.setLayer("core.attempts_per_found", ratio(float64(t.attempts), float64(t.found)), "ratio")
	rep.setLayer("core.abandoned_steps_frac", ratio(float64(t.abandonedSteps), float64(t.steps)), "frac")
	rep.setLayer("core.suspensions", perN(float64(t.suspensions)), "count")
	rep.setLayer("symexec.busy_s", symS, "s")
	rep.setLayer("symexec.steps", perN(float64(t.steps)), "count")
	rep.setLayer("symexec.forks", perN(float64(snap[obs.MetricForks])), "count")
	rep.setLayer("symexec.states_created", perN(float64(snap[obs.MetricStatesCreated])), "count")
	rep.setLayer("symexec.steps_per_s", ratio(perN(float64(t.steps)), symS), "1/s")
	rep.setLayer("symexec.alloc_mb", mb(t.symAlloc), "MB")
	rep.setLayer("solver.checks", perN(float64(t.checks)), "count")
	rep.setLayer("solver.wall_s", solverS, "s")
	rep.setLayer("solver.lookups", perN(float64(t.lookups)), "count")
	rep.setLayer("solver.lookups_per_check", ratio(float64(t.lookups), float64(t.checks)), "ratio")
	rep.setLayer("solver.hit_frac", ratio(float64(t.hits), float64(t.lookups)), "frac")
	rep.setLayer("runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU), "frac")
	rep.setLayer("runtime.alloc_mb", mb(rt.allocBytes), "MB")
	rep.setLayer("trace.overhead_frac", tracedS/untracedS-1, "frac")
	// The daemon layers and the load generator are not part of a CLI run.
	for _, m := range daemonOnlyMetrics {
		rep.setLayer(m.Name, 0, m.Unit)
	}
	return nil
}

// daemonOnlyMetrics are measured by daemon-openloop alone; CLI workloads
// report them as zero.
var daemonOnlyMetrics = []metricSpec{
	{"service.submit_ms_p90", "ms"}, {"service.queue_wait_s_p50", "s"}, {"service.queue_wait_s_p90", "s"},
	{"service.run_s_p50", "s"}, {"service.rejected", "count"}, {"service.queue_depth_max", "count"},
	{"corpus.runs_appended", "count"}, {"corpus.bytes_written", "bytes"},
	{"loadgen.lag_ms_p90", "ms"},
	{"job_s_p50.low", "s"}, {"job_s_p90.low", "s"}, {"job_s_p50.high", "s"}, {"job_s_p90.high", "s"},
	{"sustained_jobs_per_s", "1/s"}, {"ingest_runs_per_s", "1/s"},
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkTrace writes the recorded events as a JSONL trace and validates it
// with the repository's tracecheck tool.
func checkTrace(ctx context.Context, opts options, events []obs.Event, rep *report) error {
	path := filepath.Join(opts.WorkDir, "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sink := obs.NewJSONLSink(f)
	for _, ev := range events {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	out, err := exec.CommandContext(ctx, filepath.Join(opts.BinDir, "tracecheck"), path).CombinedOutput()
	fmt.Fprintf(rep.log, "-- tracecheck %d events: %s", len(events), out)
	if err != nil {
		rep.problem("tracecheck rejected the traced run's trace: %v", err)
	}
	return nil
}

// resetPeakRSS resets the kernel's peak-RSS mark of this process, so a
// later peakRSSMB reading covers only what ran after it. It is best effort:
// where /proc/self/clear_refs is not writable the reading stays the
// process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set (VmHWM) of a process ("self" or
// a pid) in MB.
func peakRSSMB(pid string) (float64, error) {
	blob, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
