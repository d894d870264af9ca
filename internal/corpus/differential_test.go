package corpus_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is an external test package: it drives real app corpora through
// the workload package, which itself depends on internal/corpus, so it
// cannot live in package corpus without an import cycle.

// fiveApps is the bundled evaluation set the acceptance criteria pin:
// byte-identical streaming output on every one of them.
var fiveApps = []string{"polymorph", "ctree", "thttpd", "grep", "msgtool"}

// diffOpts forces many blocks and segments out of even a small corpus.
var diffOpts = corpus.Options{BlockBytes: 1 << 10, SegmentBytes: 8 << 10}

func buildAppCorpus(t *testing.T, app string) *trace.Corpus {
	t.Helper()
	a, err := apps.Get(app)
	if err != nil {
		t.Fatalf("apps.Get(%s): %v", app, err)
	}
	c, err := workload.BuildCorpus(a, workload.Options{SampleRate: 1.0, Seed: 7, Correct: 30, Faulty: 30})
	if err != nil {
		t.Fatalf("BuildCorpus(%s): %v", app, err)
	}
	return c
}

func ingestApp(t *testing.T, c *trace.Corpus, opts corpus.Options) *corpus.Store {
	t.Helper()
	s, err := corpus.Create(t.TempDir(), c.Program)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w := s.NewWriter(opts)
	for i := range c.Runs {
		if err := w.Append(&c.Runs[i]); err != nil {
			t.Fatalf("Append run %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return s
}

// renderAnalysis serializes an Analysis canonically so two analyses can be
// compared byte-for-byte (every field of every predicate, in rank order;
// %v on float64 prints the shortest uniquely-identifying decimal, so any
// bit difference in scores or thresholds shows up).
func renderAnalysis(a *stats.Analysis) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "runs=%d locs=%d vars=%d\n", a.Runs, a.Locations, a.Variables)
	for i, p := range a.Predicates {
		fmt.Fprintf(&buf, "%3d %s | op=%d thr=%v score=%v err=%d nc=%d nf=%d class=%d str=%v\n",
			i, p.Key(), p.Op, p.Threshold, p.Score, p.Err, p.CountC, p.CountF, p.Class, p.IsString)
	}
	return buf.Bytes()
}

// renderGraph serializes a transition graph canonically: nodes in intern
// order, successor lists in their sorted order, entries, failure.
func renderGraph(g *pathid.Graph) []byte {
	var buf bytes.Buffer
	for i, n := range g.Nodes {
		fmt.Fprintf(&buf, "node %d %s\n", i, n)
	}
	for _, n := range g.Nodes {
		for _, e := range g.Succ[n] {
			fmt.Fprintf(&buf, "edge %s -> %s count=%d conf=%v\n", e.From, e.To, e.Count, e.Confidence)
		}
	}
	for _, e := range g.Entries {
		fmt.Fprintf(&buf, "entry %s\n", e)
	}
	fmt.Fprintf(&buf, "failure %s\n", g.Failure)
	return buf.Bytes()
}

// The reference oracle: predicate construction as the paper states it —
// collect every sample of every (location, variable) into slices, then
// scan the midpoints between adjacent distinct values of the sorted merged
// sample. It shares no code with the streaming analyzer (value sketches,
// suffix sums), so agreement pins the analyzer's arithmetic.

// sampleSet accumulates a variable's observed values at one location.
type sampleSet struct {
	loc      trace.Location
	name     string
	class    trace.VarClass
	isString bool
	correct  []int64
	faulty   []int64
}

// referenceAnalyze runs the reference predicate construction and ranking
// over a corpus.
func referenceAnalyze(corpus *trace.Corpus) *stats.Analysis {
	a := &stats.Analysis{}
	a.Runs, a.Locations, a.Variables = corpus.Counts()

	samples := make(map[string]*sampleSet)
	order := make([]string, 0, 64) // deterministic iteration
	collect := func(run *trace.Run, faulty bool) {
		for _, rec := range run.Records {
			for _, ob := range rec.Obs {
				key := rec.Loc.String() + "/" + ob.Var
				ss, ok := samples[key]
				if !ok {
					ss = &sampleSet{
						loc:      rec.Loc,
						name:     ob.Var,
						class:    ob.Class,
						isString: ob.Kind == trace.ValueString,
					}
					samples[key] = ss
					order = append(order, key)
				}
				if faulty {
					ss.faulty = append(ss.faulty, ob.Numeric())
				} else {
					ss.correct = append(ss.correct, ob.Numeric())
				}
			}
		}
	}
	for i := range corpus.Runs {
		run := &corpus.Runs[i]
		collect(run, run.Faulty)
	}
	for _, key := range order {
		if p := buildPredicate(samples[key]); p != nil {
			a.Predicates = append(a.Predicates, p)
		}
	}
	rankPredicates(a.Predicates)
	return a
}

// rankPredicates sorts by score, then by sample count, then by name for
// determinism. PredNever predicates rank below value predicates of equal
// score (they give the symbolic executor no constraint to use). The final
// tie-break is the unique (location, variable) key, so the ranking depends
// only on the predicate multiset, never on construction order.
func rankPredicates(preds []*stats.Predicate) {
	sort.SliceStable(preds, func(i, j int) bool {
		pi, pj := preds[i], preds[j]
		if pi.Score != pj.Score {
			return pi.Score > pj.Score
		}
		if (pi.Op == stats.PredNever) != (pj.Op == stats.PredNever) {
			return pj.Op == stats.PredNever
		}
		ni, nj := pi.CountC+pi.CountF, pj.CountC+pj.CountF
		if ni != nj {
			return ni > nj
		}
		return pi.Key() < pj.Key()
	})
}

// buildPredicate constructs the optimal threshold predicate for one
// sample set by minimizing the quantification error
// E = |P ∩ C| + |Pᶜ ∩ F| (Eq. 1) over all candidate thresholds and both
// directions, then scores it with Eq. 2.
func buildPredicate(ss *sampleSet) *stats.Predicate {
	nc, nf := len(ss.correct), len(ss.faulty)
	if nc == 0 && nf == 0 {
		return nil
	}
	base := &stats.Predicate{
		Loc:      ss.loc,
		Var:      ss.name,
		Class:    ss.class,
		IsString: ss.isString,
		CountC:   nc,
		CountF:   nf,
	}
	if nf == 0 {
		// The location is only reached by correct executions — the
		// predicate is unsatisfiable in faulty runs ("< -infinity",
		// Table V P7–P10). P(x|C)=0 and P(x|F) is vacuously 1.
		base.Op = stats.PredNever
		base.Score = 1.0
		base.Err = 0
		return base
	}
	if nc == 0 {
		// Only faulty runs reach here; any always-true predicate
		// separates perfectly. Use value ≥ min(F) − ½ to stay informative.
		minF := ss.faulty[0]
		for _, v := range ss.faulty {
			if v < minF {
				minF = v
			}
		}
		base.Op = stats.PredGe
		base.Threshold = float64(minF) - 0.5
		base.Score = 1.0
		base.Err = 0
		return base
	}

	c := append([]int64(nil), ss.correct...)
	f := append([]int64(nil), ss.faulty...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	sort.Slice(f, func(i, j int) bool { return f[i] < f[j] })

	// Candidate thresholds: midpoints between adjacent distinct values of
	// the merged sample.
	merged := make([]int64, 0, len(c)+len(f))
	merged = append(merged, c...)
	merged = append(merged, f...)
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	thresholds := make([]float64, 0, len(merged))
	for i := 1; i < len(merged); i++ {
		if merged[i] != merged[i-1] {
			thresholds = append(thresholds, float64(merged[i-1])+float64(merged[i]-merged[i-1])/2)
		}
	}
	if len(thresholds) == 0 {
		// All values identical: no separating threshold exists; the best
		// predicate is uninformative (score 0, covered by a degenerate
		// ≥ threshold just below the common value).
		base.Op = stats.PredGe
		base.Threshold = float64(merged[0]) - 0.5
		base.Score = 0
		base.Err = nc // every correct sample satisfies it
		return base
	}

	countGE := func(sorted []int64, t float64) int {
		// Number of values v with float64(v) >= t.
		idx := sort.Search(len(sorted), func(i int) bool { return float64(sorted[i]) >= t })
		return len(sorted) - idx
	}

	bestErr := math.MaxInt
	var bestOp stats.PredOp
	var bestT float64
	for _, t := range thresholds {
		cGE := countGE(c, t)
		fGE := countGE(f, t)
		// Direction x = {a ≥ t}: E = |C ∩ P| + |F ∩ Pᶜ|.
		if e := cGE + (nf - fGE); e < bestErr {
			bestErr, bestOp, bestT = e, stats.PredGe, t
		}
		// Direction x = {a ≤ t}: E = |C ∩ P| + |F ∩ Pᶜ|.
		if e := (nc - cGE) + fGE; e < bestErr {
			bestErr, bestOp, bestT = e, stats.PredLe, t
		}
	}
	base.Op = bestOp
	base.Threshold = bestT
	base.Err = bestErr

	// Eq. 2: score = |P(x|C) − P(x|F)|.
	cGE := countGE(c, bestT)
	fGE := countGE(f, bestT)
	var pc, pf float64
	if bestOp == stats.PredGe {
		pc = float64(cGE) / float64(nc)
		pf = float64(fGE) / float64(nf)
	} else {
		pc = float64(nc-cGE) / float64(nc)
		pf = float64(nf-fGE) / float64(nf)
	}
	base.Score = math.Abs(pc - pf)
	return base
}

// frontEnd runs the pipeline's statistical front end over a run stream:
// one pass feeding the predicate analyzer and the transition counter.
func frontEnd(t *testing.T, it trace.RunIterator) (*stats.Analysis, *pathid.Graph) {
	t.Helper()
	sa, tc := stats.NewStreamAnalyzer(), pathid.NewTransitionCounter()
	if err := trace.Each(context.Background(), it, func(r *trace.Run) {
		sa.Add(r)
		tc.Add(r)
	}); err != nil {
		t.Fatalf("front-end pass: %v", err)
	}
	return sa.Finish(), tc.Graph(pathid.Config{})
}

// requireSameAnalysis fails unless got is byte-identical to the reference.
func requireSameAnalysis(t *testing.T, what string, got, want *stats.Analysis) {
	t.Helper()
	if !bytes.Equal(renderAnalysis(got), renderAnalysis(want)) {
		t.Errorf("%s predicate ranking differs from the reference:\n--- %s ---\n%s--- reference ---\n%s",
			what, what, renderAnalysis(got), renderAnalysis(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s Analysis struct differs from the reference beyond rendering", what)
	}
}

// TestStreamingDifferential is the acceptance-criteria pin: for all five
// bundled apps, the single-pass front end — over the on-disk store and
// over the in-memory corpus's iterator — and stats.Analyze must produce
// byte-identical predicate rankings to the reference oracle, and
// transition graphs identical to BuildGraph, with the store reader's peak
// buffer bounded by the block size — never the corpus.
func TestStreamingDifferential(t *testing.T) {
	for _, app := range fiveApps {
		t.Run(app, func(t *testing.T) {
			c := buildAppCorpus(t, app)
			s := ingestApp(t, c, diffOpts)

			wantA := referenceAnalyze(c)
			wantG := pathid.BuildGraph(c, pathid.Config{})

			it := s.Iter()
			gotA, gotG := frontEnd(t, it)
			memA, memG := frontEnd(t, c.Iter())
			requireSameAnalysis(t, "store", gotA, wantA)
			requireSameAnalysis(t, "corpus iterator", memA, wantA)
			requireSameAnalysis(t, "stats.Analyze", stats.Analyze(c), wantA)
			for _, g := range []struct {
				what string
				g    *pathid.Graph
			}{{"store", gotG}, {"corpus iterator", memG}} {
				if !bytes.Equal(renderGraph(g.g), renderGraph(wantG)) {
					t.Errorf("%s transition graph differs from BuildGraph:\n--- %s ---\n%s--- BuildGraph ---\n%s",
						g.what, g.what, renderGraph(g.g), renderGraph(wantG))
				}
			}

			// Bounded memory: the iterator never buffered more than one
			// block (+ one run's overshoot), far below the corpus size.
			maxRun := 0
			for i := range c.Runs {
				if n := corpus.EncodedRunSize(&c.Runs[i]); n > maxRun {
					maxRun = n
				}
			}
			if max := it.MaxBlockBytes(); max > diffOpts.BlockBytes+maxRun {
				t.Errorf("peak block buffer %d exceeds BlockBytes %d + largest run %d", max, diffOpts.BlockBytes, maxRun)
			}
			it.Close()

			// Candidate construction downstream of the streamed graph must
			// agree with the reference analysis's too (BuildFromGraph is
			// the common back half).
			wantR, wantErr := pathid.Build(c, wantA, pathid.Config{})
			gotR, gotErr := pathid.BuildFromGraph(gotG, gotA, pathid.Config{})
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("Build err %v vs BuildFromGraph err %v", wantErr, gotErr)
			}
			if wantErr == nil {
				if len(gotR.Candidates) != len(wantR.Candidates) {
					t.Fatalf("candidate count %d vs %d", len(gotR.Candidates), len(wantR.Candidates))
				}
				for i := range wantR.Candidates {
					if gotR.Candidates[i].String() != wantR.Candidates[i].String() {
						t.Errorf("candidate %d differs:\n%s\nvs\n%s", i, gotR.Candidates[i], wantR.Candidates[i])
					}
				}
			}
		})
	}
}

// TestStreamingFallbackMode drives one variable past
// stats.DefaultMaxDistinct distinct values, so its counting sketch spills
// to the exact raw-sample fallback mid-stream, and checks the streamed
// analysis is still byte-identical to the reference — the cap trades
// memory layout, never results.
func TestStreamingFallbackMode(t *testing.T) {
	enter := trace.Location{Func: "f", Kind: trace.EventEnter}
	c := &trace.Corpus{Program: "synthetic"}
	// v takes distinct values per class, each twice, so the raw fallback
	// must count repeats too; the classes overlap so the best threshold is
	// not trivial. w repeats a few values and stays in sketch mode.
	distinct := stats.DefaultMaxDistinct + 500
	for i := 0; i < 4*distinct; i++ {
		faulty := i%2 == 1
		v := int64((i / 2) % distinct)
		if faulty {
			v += int64(distinct / 3)
		}
		c.Runs = append(c.Runs, trace.Run{
			ID:     i,
			Faulty: faulty,
			Records: []trace.Record{{
				Loc: enter,
				Obs: []trace.Observation{
					{Var: "v", Class: trace.ClassParam, Kind: trace.ValueInt, Int: v},
					{Var: "w", Class: trace.ClassParam, Kind: trace.ValueInt, Int: int64(i % 7)},
				},
			}},
		})
	}
	s := ingestApp(t, c, corpus.Options{})
	want := referenceAnalyze(c)
	if len(want.Predicates) != 2 {
		t.Fatalf("reference built %d predicates, want 2", len(want.Predicates))
	}
	it := s.Iter()
	got, _ := frontEnd(t, it)
	it.Close()
	requireSameAnalysis(t, "store", got, want)
	requireSameAnalysis(t, "stats.Analyze", stats.Analyze(c), want)
}
