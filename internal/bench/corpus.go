package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/corpus"
	"repro/internal/pathid"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CorpusRow is one storage backend's ingest/scan/analysis outcome on one
// app's corpus.
type CorpusRow struct {
	Program  string
	Backend  string // "json" or "store"
	Runs     int
	Bytes    int64         // persisted size on disk
	Ingest   time.Duration // wall time to persist the corpus
	Scan     time.Duration // wall time to re-read every run
	Analysis time.Duration // wall time of the statistical front-end
	Preds    int           // predicates produced (must match across backends)
}

// IngestMBs is the persist throughput in MB/s over the on-disk size.
func (r CorpusRow) IngestMBs() float64 { return mbs(r.Bytes, r.Ingest) }

// ScanMBs is the full-read throughput in MB/s over the on-disk size.
func (r CorpusRow) ScanMBs() float64 { return mbs(r.Bytes, r.Scan) }

func mbs(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}

// FormatCorpusAblation renders the storage-backend comparison.
func FormatCorpusAblation(title string, rows []CorpusRow) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	fmt.Fprintf(&sb, "%-10s %-6s %6s %10s %9s %9s %10s %6s\n",
		"Program", "store", "runs", "bytes", "ingest", "scan", "analysis", "preds")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-6s %6d %10d %7.1f/s %7.1f/s %10s %6d\n",
			r.Program, r.Backend, r.Runs, r.Bytes,
			r.IngestMBs(), r.ScanMBs(), r.Analysis.Round(time.Millisecond), r.Preds)
	}
	return sb.String()
}

// AblationCorpusStore compares the legacy one-blob JSON corpus against the
// segmented binary store on every app: persist the same corpus both ways,
// re-read it in full, and run the statistical front end over each (the
// same single pass, over the re-read corpus and off the store). The
// predicate counts must agree — the differential tests in internal/corpus
// pin byte-identity; this ablation prices the two storage paths.
// dir, when non-empty, is where the artifacts are written (one JSON blob
// and one store subdirectory per app, recreated each run and left behind
// for inspection); otherwise a temp directory is used and discarded.
func AblationCorpusStore(ctx context.Context, dir string, seed int64) ([]CorpusRow, error) {
	tmp := dir
	if tmp == "" {
		var err error
		tmp, err = os.MkdirTemp("", "bench-corpus-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
	}
	var rows []CorpusRow
	for _, app := range apps.All() {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		c, err := workload.BuildCorpus(app, workload.Options{SampleRate: 0.3, Seed: seed})
		if err != nil {
			return nil, err
		}

		// Backend 1: one gzipped JSON blob, read back whole, analyzed in
		// memory (the pre-store pipeline).
		blob := filepath.Join(tmp, app.Name+".log.gz")
		start := time.Now()
		n, err := c.WriteFile(blob)
		if err != nil {
			return nil, err
		}
		ingest := time.Since(start)
		start = time.Now()
		rc, err := trace.ReadFile(blob)
		if err != nil {
			return nil, err
		}
		scan := time.Since(start)
		start = time.Now()
		a, err := frontEnd(ctx, rc.Iter())
		if err != nil {
			return nil, err
		}
		rows = append(rows, CorpusRow{
			Program: app.Name, Backend: "json", Runs: len(rc.Runs), Bytes: int64(n),
			Ingest: ingest, Scan: scan, Analysis: time.Since(start), Preds: len(a.Predicates),
		})

		// Backend 2: segmented binary store, scanned block by block,
		// analyzed by the streaming front-end.
		sdir := filepath.Join(tmp, app.Name+".store")
		if err := os.RemoveAll(sdir); err != nil {
			return nil, err
		}
		s, err := corpus.Create(sdir, app.Name)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		w := s.NewWriter(corpus.Options{})
		for i := range c.Runs {
			if err := w.Append(&c.Runs[i]); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		ingest = time.Since(start)
		start = time.Now()
		runs := 0
		if err := trace.Each(ctx, s.Iter(), func(*trace.Run) { runs++ }); err != nil {
			return nil, err
		}
		scan = time.Since(start)
		start = time.Now()
		sa, err := frontEnd(ctx, s.Iter())
		if err != nil {
			return nil, err
		}
		rows = append(rows, CorpusRow{
			Program: app.Name, Backend: "store", Runs: runs, Bytes: s.TotalBytes(),
			Ingest: ingest, Scan: scan, Analysis: time.Since(start), Preds: len(sa.Predicates),
		})
	}
	return rows, nil
}

// frontEnd is the pipeline's statistical front end over one run stream:
// a single pass feeding the predicate analyzer and the transition counter,
// then predicate ranking and graph assembly.
func frontEnd(ctx context.Context, it trace.RunIterator) (*stats.Analysis, error) {
	sa, tc := stats.NewStreamAnalyzer(), pathid.NewTransitionCounter()
	if err := trace.Each(ctx, it, func(r *trace.Run) {
		sa.Add(r)
		tc.Add(r)
	}); err != nil {
		return nil, err
	}
	tc.Graph(pathid.Config{})
	return sa.Finish(), nil
}
