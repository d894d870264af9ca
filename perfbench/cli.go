package main

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/workload"
)

// analysis identifies one analysis: an app and the corpus seed its log
// corpus is collected with.
type analysis struct {
	app  *apps.App
	seed int64
}

func (a analysis) key() string { return fmt.Sprintf("%s/%d", a.app.Name, a.seed) }

// outcome is what one analysis produced.
type outcome struct {
	an     analysis
	wall   time.Duration // corpus collection to verdict
	rssMB  float64       // peak resident memory while it ran
	digest string        // core.DigestToken
	found  bool          // verified the app's known vulnerability
	direct bool          // the rank-1 candidate verified it
	// Counters that must repeat exactly at the same seed.
	steps      int64
	checks     int
	lookups    int
	candidates int
	problem    string // non-empty: errored or failed the correctness gate
}

// counters renders the deterministic part of an outcome for comparison.
func (o outcome) counters() string {
	return fmt.Sprintf("digest=%s found=%v symexec.steps=%d solver.checks=%d solver.lookups=%d pathid.candidates=%d",
		o.digest, o.found, o.steps, o.checks, o.lookups, o.candidates)
}

// corpusSeed derives the corpus seed of the i-th analysis from the
// workload seed (SplitMix64), so no corpus seed is chosen by hand.
func corpusSeed(workloadSeed int64, i int) int64 {
	x := uint64(workloadSeed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xD1B54A32D192ED03
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>33) + 1
}

func (w *workloadSpec) app(i int) *apps.App {
	app, err := apps.Get(w.Apps[i%len(w.Apps)])
	if err != nil {
		panic(err) // reference.json names only registered apps
	}
	return app
}

func (w *workloadSpec) corpusOptions(seed int64) workload.Options {
	return workload.Options{SampleRate: w.Rate, Seed: seed, Correct: w.Runs, Faulty: w.Runs}
}

func (w *workloadSpec) coreConfig(app *apps.App) core.Config {
	cfg := core.Config{Spec: app.Spec, PerCandidateMaxSteps: w.MaxSteps}
	cfg.Path.MaxCandidates = w.MaxCandidates
	return cfg
}

// summarize turns a pipeline report into an outcome and applies the
// correctness gate.
func summarize(ref *reference, an analysis, r *core.Report, wall time.Duration) outcome {
	o := outcome{an: an, wall: wall, digest: core.DigestToken(r), steps: r.TotalSteps}
	o.found, o.problem = checkVerdict(ref, an.app, r)
	o.direct = r.Vuln != nil && r.CandidateUsed == 1
	for _, c := range r.Candidates {
		o.checks += c.SolverChecks
		o.lookups += c.CacheHits + c.CacheMisses
	}
	if r.PathRes != nil {
		o.candidates = len(r.PathRes.Candidates)
	}
	return o
}

// endToEnd runs one analysis through the single pipeline entry, timed
// from corpus collection to verdict, with tracing off.
//
// Each analysis starts from a collected heap with the peak-RSS mark reset,
// as a fresh CLI process would, so neither its time nor its peak memory
// depends on what the analysis before it left behind.
func endToEnd(ctx context.Context, ref *reference, w *workloadSpec, an analysis) outcome {
	debug.FreeOSMemory()
	resetPeakRSS()
	start := time.Now()
	corpus, err := workload.BuildCorpusCtx(ctx, an.app, w.corpusOptions(an.seed))
	if err != nil {
		return outcome{an: an, problem: err.Error()}
	}
	r, err := core.RunContext(ctx, an.app.Program(), corpus, w.coreConfig(an.app))
	wall := time.Since(start)
	if err != nil {
		return outcome{an: an, problem: err.Error()}
	}
	o := summarize(ref, an, r, wall)
	if o.rssMB, err = peakRSSMB("self"); err != nil {
		o.problem = err.Error()
	}
	return o
}

// setupCLI compiles every app of the workload from source and runs one
// small warm-up analysis, so the timed batch starts with code and heap
// warm. It returns the elapsed time.
func setupCLI(ctx context.Context, ref *reference, w *workloadSpec) (time.Duration, error) {
	start := time.Now()
	for i := range w.Apps {
		app := w.app(i)
		if _, err := bytecode.Compile(minic.MustParse(app.Name, app.Source)); err != nil {
			return 0, fmt.Errorf("compile %s: %w", app.Name, err)
		}
		app.Program()
	}
	warm := &workloadSpec{Rate: 0.3, Runs: 20, MaxSteps: w.MaxSteps}
	polymorph, err := apps.Get("polymorph")
	if err != nil {
		return 0, err
	}
	o := endToEnd(ctx, ref, warm, analysis{app: polymorph, seed: 1})
	if o.problem != "" {
		return 0, fmt.Errorf("warm-up analysis: %s", o.problem)
	}
	return time.Since(start), nil
}

// batch is the measured work of a CLI workload: the analyses whose wall
// times make up batch_s, plus every analysis run to choose them.
type batch struct {
	// passes holds one entry per timed batch; stratified workloads time
	// one batch, the passes workload repeats it.
	passes [][]outcome
	// scanned holds every analysis run, in order.
	scanned []outcome
}

func (b *batch) walls() []float64 {
	var out []float64
	for _, p := range b.passes {
		var s time.Duration
		for _, o := range p {
			s += o.wall
		}
		out = append(out, s.Seconds())
	}
	return out
}

// scanBudget bounds a stratified scan so that a scan, the traced re-run of
// its batch and the cross-check together stay well inside runDeadline.
const scanBudget = 90 * time.Second

// stratifiedScan runs analyses in corpus-seed order and keeps the first
// w.Direct direct and the first w.Detoured detoured ones as the batch.
// Misleading corpora (every candidate abandoned) and deep abandoned
// candidates are rare but cost many times a direct analysis, so a batch
// of fixed size would vary with the seed far more than with the code; a
// fixed number of each kind keeps the batch comparable across seeds.
// Analyses beyond a full quota still run and still count in found_frac
// and verdict_s_p50. The batch is the same whatever --seconds says; the
// scan stops early only at w.ScanCap analyses or after scanBudget.
func stratifiedScan(ctx context.Context, ref *reference, w *workloadSpec, seed int64) *batch {
	b := &batch{}
	var kept []outcome
	start := time.Now()
	nd, nt := 0, 0
	for i := 0; i < w.ScanCap && (nd < w.Direct || nt < w.Detoured); i++ {
		if ctx.Err() != nil || time.Since(start) > scanBudget {
			break
		}
		o := endToEnd(ctx, ref, w, analysis{app: w.app(i), seed: corpusSeed(seed, i)})
		b.scanned = append(b.scanned, o)
		switch {
		case o.problem != "":
		case o.direct && nd < w.Direct:
			kept = append(kept, o)
			nd++
		case !o.direct && nt < w.Detoured:
			kept = append(kept, o)
			nt++
		}
	}
	b.passes = [][]outcome{kept}
	return b
}

// repeatPasses runs one analysis per app, over and over, for at least the
// given time and at least minPasses times.
func repeatPasses(ctx context.Context, ref *reference, w *workloadSpec, seed int64, d time.Duration, minPasses int) *batch {
	b := &batch{}
	start := time.Now()
	for len(b.passes) < minPasses || time.Since(start) < d {
		if ctx.Err() != nil {
			break
		}
		var pass []outcome
		for i := range w.Apps {
			o := endToEnd(ctx, ref, w, analysis{app: w.app(i), seed: corpusSeed(seed, i)})
			pass = append(pass, o)
			b.scanned = append(b.scanned, o)
		}
		b.passes = append(b.passes, pass)
	}
	return b
}

// runCLI measures one of the in-process workloads.
func runCLI(ctx context.Context, opts options, ref *reference, w *workloadSpec, rep *report) error {
	var setups []float64
	for i := 0; i < ref.SetupRepeats; i++ {
		d, err := setupCLI(ctx, ref, w)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	rep.setE2E("setup_s", median(setups), "s")

	measure := time.Duration(opts.Seconds * float64(time.Second))
	if opts.Trace {
		// The traced passes need their own share of the measurement time.
		measure /= 2
	}
	var b *batch
	if w.Kind == kindStratified {
		b = stratifiedScan(ctx, ref, w, opts.Seed)
	} else {
		b = repeatPasses(ctx, ref, w, opts.Seed, measure, 3)
	}
	gateBatch(opts, ref, w, b, rep)

	// found_frac and verdict_s_p50 cover every analysis run (the median
	// shrugs off the rare heavy analyses); batch_s and peak_rss_mb cover
	// the batch, whose make-up does not depend on the seed. peak_rss_mb is
	// the 90th percentile of the analyses' peaks: the single largest peak
	// of a batch swings by a third between corpora of the same kind.
	var perAnalysis, peaks []float64
	found := 0
	for _, o := range b.scanned {
		perAnalysis = append(perAnalysis, o.wall.Seconds())
		if o.found {
			found++
		}
	}
	for _, p := range b.passes {
		for _, o := range p {
			peaks = append(peaks, o.rssMB)
		}
	}
	inBatch := map[string]bool{}
	for _, o := range b.passes[0] {
		inBatch[o.an.key()] = true
	}
	shown := b.scanned
	if w.Kind == kindPasses {
		shown = b.passes[0]
	}
	for _, o := range shown {
		fmt.Fprintf(rep.log, "   %-22s %8.3fs %6.1fMB batch=%-5v direct=%-5v %s\n",
			o.an.key(), o.wall.Seconds(), o.rssMB, inBatch[o.an.key()], o.direct, o.counters())
	}
	rep.setE2E("batch_s", median(b.walls()), "s")
	rep.setE2E("verdict_s_p50", median(perAnalysis), "s")
	rep.setE2E("found_frac", float64(found)/float64(len(b.scanned)), "frac")
	rep.setE2E("peak_rss_mb", quantile(peaks, 0.9), "MB")
	fmt.Fprintf(rep.log, "-- %d analyses run, %d timed batch(es) of %d, batch_s per batch %v\n",
		len(b.scanned), len(b.passes), len(b.passes[0]), fmtSeconds(b.walls()))
	fmt.Fprintf(rep.log, "-- batch digests: %s\n", digestList(b.passes[0]))
	if !opts.Trace {
		return nil
	}
	return tracedCLI(ctx, opts, ref, w, b, measure, rep)
}

// gateBatch applies the per-analysis checks: errors and gate failures,
// the recorded digests at the default seed, and exact repetition of the
// deterministic counters across repeated passes.
func gateBatch(opts options, ref *reference, w *workloadSpec, b *batch, rep *report) {
	for _, o := range b.scanned {
		rep.attempted++
		if o.problem != "" {
			rep.fail("%s: %s", o.an.key(), o.problem)
		}
	}
	first := b.passes[0]
	if opts.Seed == ref.DefaultSeed && len(w.Digests) > 0 {
		if len(first) != len(w.Digests) {
			rep.problem("batch at the default seed has %d analyses, reference.json records %d", len(first), len(w.Digests))
		}
		for i, o := range first {
			got := o.an.key() + "=" + o.digest
			if i < len(w.Digests) && o.problem == "" && got != w.Digests[i] {
				rep.fail("default-seed digest of analysis %d: got %s, reference.json records %s", i, got, w.Digests[i])
			}
		}
	}
	for p := 1; p < len(b.passes); p++ {
		for i, o := range b.passes[p] {
			if o.counters() != first[i].counters() {
				rep.problem("determinism: %s pass %d: %s, pass 1: %s", o.an.key(), p+1, o.counters(), first[i].counters())
			}
		}
	}
}

// digestList renders a batch's digests the way reference.json records them.
func digestList(pass []outcome) string {
	var parts []string
	for _, o := range pass {
		parts = append(parts, fmt.Sprintf("%q", o.an.key()+"="+o.digest))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func fmtSeconds(v []float64) string {
	var parts []string
	for _, x := range v {
		parts = append(parts, fmt.Sprintf("%.3fs", x))
	}
	return strings.Join(parts, " ")
}
