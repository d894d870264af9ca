package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	corpusstore "repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// frontEndFixture collects one polymorph corpus in memory and the same
// runs into a segmented store with small blocks and segments.
func frontEndFixture(t *testing.T) (*apps.App, *trace.Corpus, *corpusstore.Store) {
	t.Helper()
	app, err := apps.Get("polymorph")
	if err != nil {
		t.Fatal(err)
	}
	opts := workload.Options{SampleRate: 0.3, Seed: 1}
	corpus, err := workload.BuildCorpus(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := corpusstore.Create(t.TempDir(), app.Name)
	if err != nil {
		t.Fatal(err)
	}
	wopts := corpusstore.Options{BlockBytes: 4 << 10, SegmentBytes: 32 << 10}
	if err := workload.BuildCorpusStoreCtx(t.Context(), app, opts, store, wopts); err != nil {
		t.Fatal(err)
	}
	return app, corpus, store
}

// TestStoreRunScansOnce: without a CacheDir the store-backed pipeline reads
// every run exactly once — predicates and transitions come from one pass.
func TestStoreRunScansOnce(t *testing.T) {
	app, _, store := frontEndFixture(t)
	o := obs.New(nil)
	rep, err := RunStoreContext(obs.NewContext(context.Background(), o), app.Program(), store,
		Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := o.Metrics.Snapshot()[obs.MetricCorpusScanRuns], int64(store.TotalRuns()); got != want {
		t.Errorf("corpus.scan.runs = %d, want one pass of %d runs", got, want)
	}
	if rep.Runs != store.TotalRuns() {
		t.Errorf("Report.Runs = %d, store holds %d", rep.Runs, store.TotalRuns())
	}
}

// TestStoreRunReplaysStatsMemo: a store-backed run with a CacheDir memoizes
// the statistical phase and replays it warm, and both detect exactly what
// the in-memory cold run detects on the same runs. A store and an
// in-memory corpus holding the same runs share one fingerprint.
func TestStoreRunReplaysStatsMemo(t *testing.T) {
	app, corpus, store := frontEndFixture(t)
	ref, err := Run(app.Program(), corpus, Config{Spec: app.Spec})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: app.Spec, CacheDir: t.TempDir()}
	cold, err := RunStore(app.Program(), store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunStore(app.Program(), store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.StatsCached {
		t.Error("cold store run replayed a memo that did not exist")
	}
	if !warm.StatsCached {
		t.Error("warm store run did not replay the stats memo")
	}
	for _, rep := range []*Report{cold, warm} {
		if DetectionDigest(rep) != DetectionDigest(ref) {
			t.Errorf("store digest (cached=%v):\n%s\nin-memory digest:\n%s",
				rep.StatsCached, DetectionDigest(rep), DetectionDigest(ref))
		}
		if rep.Runs != ref.Runs || rep.Locations != ref.Locations || rep.Variables != ref.Variables {
			t.Errorf("store counts (cached=%v) (%d,%d,%d), in-memory (%d,%d,%d)", rep.StatsCached,
				rep.Runs, rep.Locations, rep.Variables, ref.Runs, ref.Locations, ref.Variables)
		}
	}

	ctx := context.Background()
	memFP, err := corpusFingerprint(ctx, runSource{program: corpus.Program, open: corpus.Iter})
	if err != nil {
		t.Fatal(err)
	}
	storeFP, err := corpusFingerprint(ctx, runSource{program: store.Program(),
		open: func() trace.RunIterator { return store.Iter() }})
	if err != nil {
		t.Fatal(err)
	}
	if memFP != storeFP {
		t.Errorf("fingerprints differ for the same runs: in-memory %x, store %x", memFP, storeFP)
	}
}

// cancelAfter is a run iterator that cancels its context after yielding n
// runs, landing the cancellation in the middle of the front-end pass.
type cancelAfter struct {
	trace.RunIterator
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() (*trace.Run, error) {
	if c.n == 0 {
		c.cancel()
	}
	c.n--
	return c.RunIterator.Next()
}

// TestFrontEndCancel: a cancellation that lands during the front-end pass
// returns context.Canceled and a report with no statistics — never
// predicates or candidates built from the runs read so far. A context that
// is already dead is caught on the first run the same way.
func TestFrontEndCancel(t *testing.T) {
	app, corpus, _ := frontEndFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := runSource{program: corpus.Program, open: func() trace.RunIterator {
		return &cancelAfter{RunIterator: corpus.Iter(), n: len(corpus.Runs) / 2, cancel: cancel}
	}}
	rep, err := runAnalysis(ctx, app.Program(), src, Config{Spec: app.Spec})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-pass cancel returned %v, want context.Canceled", err)
	}
	if rep != nil && (rep.Analysis != nil || rep.PathRes != nil || len(rep.Candidates) > 0) {
		t.Errorf("cancelled front end left statistics in the report: %+v", rep)
	}

	// The same through the memo's fingerprint pass.
	_, err = RunContext(ctx, app.Program(), corpus, Config{Spec: app.Spec, CacheDir: t.TempDir()})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled fingerprint pass returned %v, want context.Canceled", err)
	}
}

// TestStatsCacheNilPredicate: an artifact whose key matches but whose
// predicate list holds a null must be a miss — a replay would hand a nil
// predicate to every reader of the analysis (the predicate listing, the
// HTML report).
func TestStatsCacheNilPredicate(t *testing.T) {
	app, corpus, _ := frontEndFixture(t)
	dir := t.TempDir()
	cfg := Config{Spec: app.Spec, CacheDir: dir}
	cold, err := Run(app.Program(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memo := filepath.Join(dir, statsCacheName)
	blob, err := os.ReadFile(memo)
	if err != nil {
		t.Fatal(err)
	}
	// Decode numbers as json.Number so the uint64 corpus fingerprint
	// survives the round trip and the key still matches.
	var art map[string]any
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	if err := dec.Decode(&art); err != nil {
		t.Fatal(err)
	}
	analysis := art["analysis"].(map[string]any)
	analysis["Predicates"] = append([]any{nil}, analysis["Predicates"].([]any)...)
	if blob, err = json.Marshal(art); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(memo, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := Run(app.Program(), corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.StatsCached {
		t.Error("artifact with a null predicate was replayed")
	}
	for i, p := range warm.Analysis.Top(10) {
		if p == nil {
			t.Fatalf("predicate %d is nil", i)
		}
		_ = p.String()
	}
	if DetectionDigest(warm) != DetectionDigest(cold) {
		t.Error("digest diverged after the null-predicate artifact")
	}
}

// FuzzLoadStatsCache feeds mutated statscache.json artifacts to the
// validator. A hit must never panic, and must hand downstream only
// non-nil predicates and candidate nodes that reference them.
func FuzzLoadStatsCache(f *testing.F) {
	app, err := apps.Get("polymorph")
	if err != nil {
		f.Fatal(err)
	}
	corpus, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: 1, Correct: 20, Faulty: 20})
	if err != nil {
		f.Fatal(err)
	}
	const fp = 0x5eed
	var pathCfg pathid.Config
	analysis := stats.Analyze(corpus)
	pres, err := pathid.Build(corpus, analysis, pathCfg)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	saveStatsCache(dir, fp, app.Name, pathCfg, analysis, pres)
	blob, err := os.ReadFile(filepath.Join(dir, statsCacheName))
	if err != nil {
		f.Fatal(err)
	}
	if _, _, ok := decodeStatsCache(blob, fp, app.Name, pathCfg); !ok {
		f.Fatal("seed artifact does not replay")
	}
	f.Add(blob)
	f.Add([]byte(`{"version":2,"program":"polymorph","corpus":24301,"path":{},"analysis":{"Predicates":[null]},"candidates":[{"nodes":[{"pred":0}]}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		analysis, res, ok := decodeStatsCache(blob, fp, app.Name, pathCfg)
		if !ok {
			return
		}
		preds := make(map[*stats.Predicate]bool, len(analysis.Predicates))
		for i, p := range analysis.Predicates {
			if p == nil {
				t.Fatalf("hit carries nil predicate %d", i)
			}
			preds[p] = true
			_ = p.String()
		}
		for i, c := range res.Candidates {
			if c == nil {
				t.Fatalf("hit carries nil candidate %d", i)
			}
			for _, n := range c.Nodes {
				if n.Pred != nil && !preds[n.Pred] {
					t.Fatalf("candidate %d references a predicate outside the analysis", i)
				}
			}
			_ = c.String()
		}
	})
}
