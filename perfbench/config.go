package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/apps"
)

// Workload kinds.
const (
	// kindStratified runs analyses in seed order and keeps a batch with a
	// fixed number of direct and detoured analyses (see cli.go).
	kindStratified = "stratified"
	// kindPasses repeats one analysis per app for the measurement time.
	kindPasses = "passes"
	// kindDaemon drives a statsymd process with an open-loop job schedule.
	kindDaemon = "daemon"
)

// reference is reference.json plus the metric list of BENCHMARK.json.
// reference.json also carries "notes" for readers, which the harness does
// not read.
type reference struct {
	// DefaultSeed is the workload seed whose per-analysis digests are
	// recorded in each workload's Digests.
	DefaultSeed int64 `json:"default_seed"`
	// SetupRepeats is how many times a run sets up; setup_s is the median.
	SetupRepeats int `json:"setup_repeats"`
	// TraceSumTolerance bounds |sum of layer self times / untraced batch_s - 1|.
	TraceSumTolerance float64 `json:"trace_sum_tolerance"`
	// CrossCheck pins corpus-seed-1 analyses to a checked-in ledger.
	CrossCheck crossCheckSpec `json:"cross_check"`
	// Workloads maps a workload name to its parameters.
	Workloads map[string]*workloadSpec `json:"workloads"`
	// DocumentedSites lists, per app, the vulnerabilities its source
	// documents besides the App's VulnFunc/VulnKind (the multi-bug
	// extension apps); a verdict at any of them is a correct find.
	DocumentedSites map[string][]site `json:"documented_sites"`

	EndToEnd []metricSpec `json:"-"`
	PerLayer []metricSpec `json:"-"`
}

// crossCheckSpec is the seed-1 correctness cross-check run outside the
// timed batch of every invocation.
type crossCheckSpec struct {
	Source   string  `json:"source"`
	Rate     float64 `json:"rate"`
	Runs     int     `json:"runs"`
	Seed     int64   `json:"seed"`
	MaxSteps int64   `json:"max_steps_per_candidate"`
	Apps     []struct {
		App    string `json:"app"`
		Digest string `json:"digest"`
		Steps  int64  `json:"steps"`
	} `json:"apps"`
}

// workloadSpec holds one workload's fixed parameters.
type workloadSpec struct {
	Kind string   `json:"kind"`
	Apps []string `json:"apps"`
	// Rate and Runs size each corpus: the sampling rate and the number of
	// correct and of faulty runs.
	Rate float64 `json:"rate"`
	Runs int     `json:"runs"`
	// MaxSteps is the deterministic per-candidate step budget.
	MaxSteps int64 `json:"max_steps_per_candidate"`
	// MaxCandidates caps the ranked candidate list (0: pathid default).
	MaxCandidates int `json:"max_candidates"`

	// Stratified batches: Direct analyses verify with their rank-1
	// candidate, Detoured ones abandon at least one candidate first (or
	// abandon all). ScanCap bounds the analyses run to fill the batch.
	Direct   int `json:"direct"`
	Detoured int `json:"detoured"`
	ScanCap  int `json:"scan_cap"`

	// Digests are the DigestTokens of the batch analyses at DefaultSeed,
	// in batch order, as "app/corpus-seed=token".
	Digests []string `json:"digests_at_default_seed"`

	Daemon *daemonSpec `json:"daemon,omitempty"`
}

// daemonSpec parameterizes daemon-openloop.
type daemonSpec struct {
	Runners int `json:"runners"`
	// QueueSlots sizes the daemon's queue above anything the schedule
	// can back up, so overloaded rungs queue instead of being refused.
	QueueSlots int `json:"queue_slots"`
	Tenants    int `json:"tenants"`
	// UniqueSeeds is the number of distinct corpus seeds per app that
	// collect-on-demand jobs cycle through.
	UniqueSeeds int `json:"unique_seeds"`
	// NamedEvery makes every n-th job analyze a named (ingested) corpus.
	NamedEvery int `json:"named_every"`
	// NamedApp is the app whose corpus is ingested for named-corpus jobs.
	NamedApp string `json:"named_app"`
	// Rungs is the rate ladder, lowest first, as fixed fractions of the
	// capacity measured on the reference host (see the notes). The rungs
	// named "low" and "high" give the job_s_* metrics.
	Rungs []struct {
		Name string  `json:"name"`
		Rate float64 `json:"jobs_per_s"`
	} `json:"rungs"`
	// P90LimitS is the job latency limit a sustained rung must meet.
	P90LimitS float64 `json:"p90_limit_s"`
	// IngestRuns and IngestPauseMS shape the ingestion stream: batches of
	// IngestRuns runs, a pause between batches.
	IngestRuns    int `json:"ingest_runs_per_batch"`
	IngestPauseMS int `json:"ingest_pause_ms"`
}

// site is a known vulnerability: the faulting function and fault kind.
type site struct {
	Func string `json:"func"`
	Kind string `json:"kind"`
}

// sites returns every known vulnerability site of app.
func (r *reference) sites(app *apps.App) []site {
	return append([]site{{Func: app.VulnFunc, Kind: app.VulnKind.String()}}, r.DocumentedSites[app.Name]...)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadReference reads reference.json and the metric lists of the
// BENCHMARK.json two directories up from it (the repository root).
func loadReference(path string) (*reference, error) {
	var ref reference
	if err := readJSON(path, &ref); err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	benchPath := filepath.Join(filepath.Dir(path), "..", "BENCHMARK.json")
	if err := readJSON(benchPath, &bench); err != nil {
		return nil, err
	}
	ref.EndToEnd, ref.PerLayer = bench.EndToEnd, bench.PerLayer
	if ref.SetupRepeats < 1 {
		return nil, fmt.Errorf("%s: setup_repeats must be at least 1", path)
	}
	for name, w := range ref.Workloads {
		switch w.Kind {
		case kindStratified, kindPasses:
			if len(w.Apps) == 0 || w.Runs <= 0 || w.Rate <= 0 || w.MaxSteps <= 0 {
				return nil, fmt.Errorf("%s: workload %s needs apps, runs, rate and a step budget", path, name)
			}
		case kindDaemon:
			if w.Daemon == nil || w.Daemon.rung("low") < 0 || w.Daemon.rung("high") < 0 {
				return nil, fmt.Errorf("%s: workload %s needs a daemon section with rungs named low and high", path, name)
			}
		default:
			return nil, fmt.Errorf("%s: workload %s has unknown kind %q", path, name, w.Kind)
		}
	}
	return &ref, nil
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (r *reference) workloadNames() []string {
	var names []string
	for n := range r.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
